//! Local approximate changes (LACs) by approximate resubstitution
//! (§III-B3, Algorithm 2).
//!
//! A LAC candidate replaces one node's function with a new function of a
//! feasible divisor set, derived as an irredundant sum-of-products over the
//! approximate care patterns (with every unobserved divisor pattern a
//! don't-care).

use std::collections::HashMap;

use alsrac_aig::{Aig, FanoutMap, Lit, MffcScratch, NodeSet, RebuildError, WindowExtractor};
use alsrac_rt::pool;
use alsrac_sim::{PatternBuffer, Simulation};
use alsrac_truthtable::{factored_aig_cost, isop, sop_to_aig, Sop};

use crate::care::ApproximateCareSet;
use crate::divisors::{select_divisor_sets_with, DivisorConfig};
use crate::window::WindowConfig;

/// One candidate local approximate change.
#[derive(Clone, Debug)]
pub struct Lac {
    /// The signal whose function is replaced (the cover reproduces this
    /// literal's value; the underlying node is substituted accordingly).
    pub node: Lit,
    /// The divisor signals the new function reads (variable `i` of the
    /// cover is `divisors[i]`).
    pub divisors: Vec<Lit>,
    /// The approximate resubstitution function.
    pub cover: Sop,
    /// Standalone AND-node cost of materializing the cover.
    pub est_cost: usize,
    /// Nodes freed if the LAC is applied (MFFC size of the node).
    pub est_saved: usize,
}

impl Lac {
    /// Appends the replacement logic to `aig` and returns the literal whose
    /// value equals the cover over the divisors.
    pub fn materialize(&self, aig: &mut Aig) -> Lit {
        sop_to_aig(aig, &self.cover, &self.divisors)
    }

    /// Applies the LAC: materializes the cover and rebuilds the graph with
    /// the target node substituted. The result is swept and re-hashed.
    ///
    /// # Errors
    ///
    /// Returns [`RebuildError::Cycle`] in the rare case where structural
    /// hashing maps the materialized cover onto an *existing* node in the
    /// target's transitive fanout (the cover's logic already exists above
    /// the node); substituting would then create a combinational cycle.
    /// Callers skip such candidates.
    pub fn apply(&self, aig: &Aig) -> Result<Aig, RebuildError> {
        let mut work = aig.clone();
        // The cover reproduces the *signal* self.node; the substitution map
        // is keyed by node, so compensate the polarity.
        let replacement = self
            .materialize(&mut work)
            .complement_if(self.node.is_complement());
        work.rebuilt_with_substitutions(&HashMap::from([(self.node.node(), replacement)]))
    }

    /// Estimated net node saving (may be negative for size-increasing
    /// candidates, which the flow deprioritizes).
    pub fn est_gain(&self) -> isize {
        self.est_saved as isize - self.est_cost as isize
    }

    /// Short classification of the change, for run telemetry: `"const0"` /
    /// `"const1"` for constant substitutions (the cover reads no divisor)
    /// and `"resub<k>"` for a `k`-divisor resubstitution.
    pub fn kind(&self) -> String {
        if self.divisors.is_empty() {
            if self.cover.cubes().is_empty() {
                "const0".to_string()
            } else {
                "const1".to_string()
            }
        } else {
            format!("resub{}", self.divisors.len())
        }
    }
}

/// Configuration for [`generate_lacs`] (Algorithm 2).
#[derive(Clone, Debug)]
pub struct LacConfig {
    /// Maximum LACs per node (the paper's `L`, default 1).
    pub lac_limit: usize,
    /// Divisor-set selection options.
    pub divisors: DivisorConfig,
}

impl Default for LacConfig {
    fn default() -> LacConfig {
        LacConfig {
            lac_limit: 1,
            divisors: DivisorConfig::default(),
        }
    }
}

/// Generates LAC candidates for every AND node of `aig` from one care-set
/// simulation (Algorithm 2).
///
/// `sim` must be a simulation of `aig` on `patterns` (the `N`-round care
/// simulation of the flow). For each node, divisor sets are tried in
/// Algorithm 1 order; each feasible set contributes one candidate (the ISOP
/// of its approximate care truth table, prime and irredundant) until the
/// per-node limit is reached.
pub fn generate_lacs(
    aig: &Aig,
    sim: &Simulation,
    patterns: &PatternBuffer,
    fanouts: &FanoutMap,
    config: &LacConfig,
) -> Vec<Lac> {
    generate_lacs_with(
        aig,
        sim,
        patterns,
        fanouts,
        config,
        &WindowConfig::disabled(),
    )
}

/// Pivots per work item of [`generate_lacs_with`]. A block of about this
/// many pivots costs milliseconds, which dwarfs the pool's per-call thread
/// spawn; circuits up to this many ANDs are one block and run inline.
const PIVOT_BLOCK: usize = 1024;

/// [`generate_lacs`] with explicit windowing control (the flow's entry
/// point; plain `generate_lacs` runs with windowing off).
///
/// With windowing enabled, each pivot's divisor pool comes from a bounded
/// [`alsrac_aig::Window`] instead of its full TFI cone. A window bound
/// covering a pivot's whole TFI leaves its pool unchanged, so on circuits
/// inside the bound the windowed LAC list is bit-identical to the
/// unwindowed one. Every divisor set is kept or rejected by the care-set
/// harvest alone.
///
/// Pivots run on the [`alsrac_rt::pool`] executor in blocks of
/// consecutive AND nodes, each worker with its own window and MFFC
/// scratch; every pivot is a pure function of the shared read-only graph
/// and simulation, and the blocks' lists are joined in block order, so
/// the result is the serial loop's at any thread count.
///
/// Emits the `window_extracted` / `window_nodes` trace counters when
/// windowing is on, each summed over the call and added once.
pub fn generate_lacs_with(
    aig: &Aig,
    sim: &Simulation,
    patterns: &PatternBuffer,
    fanouts: &FanoutMap,
    config: &LacConfig,
    window: &WindowConfig,
) -> Vec<Lac> {
    // Shared structural data, hoisted once per call (= once per flow
    // iteration) instead of once per node.
    let levels = fanouts.levels();
    let params = window.params();
    let num_blocks = aig.num_ands().div_ceil(PIVOT_BLOCK);
    let init = || (WindowExtractor::new(), MffcScratch::new());
    let blocks = pool::par_indices_init(num_blocks, init, |(extractor, mffc_scratch), block| {
        let mut out = PivotBlock::default();
        for node in aig.iter_ands().skip(block * PIVOT_BLOCK).take(PIVOT_BLOCK) {
            let mffc_size = aig.mffc_with(node, fanouts, mffc_scratch).len();
            let extracted = window.enabled.then(|| {
                let w = extractor.extract(aig, fanouts, node, &params);
                out.windows += 1;
                out.window_nodes += w.num_nodes() as u64;
                w
            });
            let sets =
                select_divisor_sets_with(aig, node, levels, extracted.as_ref(), &config.divisors);
            let mut count = 0usize;
            for set in sets {
                if count >= config.lac_limit {
                    break;
                }
                let mut lits = [Lit::FALSE; NodeSet::CAPACITY];
                for (lit, d) in lits.iter_mut().zip(set.iter()) {
                    *lit = d.lit();
                }
                let divisors = &lits[..set.len()];
                let Some(care) = ApproximateCareSet::harvest(sim, patterns, node.lit(), divisors)
                else {
                    continue; // infeasible divisor set
                };
                let on = care.on_set();
                let dc = care.dont_care_set();
                let cover = isop(on, &on.or(&dc));
                let est_cost = factored_aig_cost(&cover, divisors.len());
                out.lacs.push(Lac {
                    node: node.lit(),
                    divisors: divisors.to_vec(),
                    cover,
                    est_cost,
                    est_saved: mffc_size,
                });
                count += 1;
            }
        }
        out
    });

    let mut blocks = blocks.into_iter();
    let mut total = blocks.next().unwrap_or_default();
    for block in blocks {
        total.lacs.extend(block.lacs);
        total.windows += block.windows;
        total.window_nodes += block.window_nodes;
    }
    // Every window holds its pivot, so `window_nodes` is positive too.
    if total.windows > 0 {
        alsrac_rt::trace::add("window_extracted", total.windows);
        alsrac_rt::trace::add("window_nodes", total.window_nodes);
    }
    total.lacs
}

/// The candidates and window counters of one block of pivots.
#[derive(Default)]
struct PivotBlock {
    lacs: Vec<Lac>,
    windows: u64,
    window_nodes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use alsrac_truthtable::minimize;

    /// The Fig. 1a circuit of the paper (see `care::tests` for the
    /// derivation of the node functions from Table I).
    fn fig1() -> (Aig, Lit, Lit, Lit) {
        let mut aig = Aig::new("fig1");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let d = aig.add_input("d");
        let _x = aig.and(!a, !b);
        let _y = aig.and(b, c);
        let u = aig.or(c, d);
        let anb = aig.and(a, !b);
        let bnc = aig.and(b, !c);
        let z = aig.or(anb, bnc);
        let w = !c;
        let v = aig.xor(z, w);
        aig.add_output("v", v);
        aig.add_output("u", u); // keep u alive
        (aig, u, z, v)
    }

    #[test]
    fn paper_example_4_nor_resubstitution() {
        // With the 5 patterns of Example 1, divisors {u, z} for node v give
        // the ISOP !u & !z (Table II), i.e. a NOR gate.
        let (aig, u, z, v) = fig1();
        let rows = vec![
            vec![false, false, false, false],
            vec![false, false, true, false],
            vec![false, false, true, true],
            vec![false, true, false, false],
            vec![true, false, false, false],
        ];
        let patterns = PatternBuffer::from_rows(4, &rows);
        let sim = Simulation::new(&aig, &patterns);
        let care = ApproximateCareSet::harvest(&sim, &patterns, v, &[u, z])
            .expect("feasible per Example 3");
        let on = care.on_set();
        let cover = minimize(
            &isop(on, &on.or(&care.dont_care_set())),
            on,
            &care.dont_care_set(),
        );
        assert_eq!(cover.num_cubes(), 1);
        assert_eq!(
            cover.cubes()[0],
            alsrac_truthtable::Cube::TAUTOLOGY.with_neg(0).with_neg(1),
            "expected !u & !z"
        );

        // Applying it gives the paper's 18.75% error rate at node v under
        // uniform inputs (3 of 16 patterns wrong): we check at the output,
        // which equals v here.
        let lac = Lac {
            node: v,
            divisors: vec![u, z],
            cover,
            est_cost: 1,
            est_saved: 0,
        };
        let approx = lac.apply(&aig).expect("no cycle");
        let exhaustive = PatternBuffer::exhaustive(4);
        let m = alsrac_metrics::measure(&aig, &approx, &exhaustive).expect("same arity");
        // Output "u" unchanged; only v differs. The v output polarity makes
        // node error = output error.
        assert!(
            (m.error_rate - 3.0 / 16.0).abs() < 1e-12,
            "expected 18.75% error rate, got {}",
            m.error_rate
        );
    }

    #[test]
    fn generate_respects_lac_limit() {
        let aig = alsrac_circuits::arith::ripple_carry_adder(3);
        let patterns = PatternBuffer::random(6, 8, 3);
        let sim = Simulation::new(&aig, &patterns);
        let fanouts = aig.fanout_map();
        let one = generate_lacs(&aig, &sim, &patterns, &fanouts, &LacConfig::default());
        let many = generate_lacs(
            &aig,
            &sim,
            &patterns,
            &fanouts,
            &LacConfig {
                lac_limit: 4,
                ..LacConfig::default()
            },
        );
        let count_for = |lacs: &[Lac], n: alsrac_aig::NodeId| {
            lacs.iter().filter(|l| l.node.node() == n).count()
        };
        for id in aig.iter_ands() {
            assert!(count_for(&one, id) <= 1);
            assert!(count_for(&many, id) <= 4);
        }
        assert!(many.len() >= one.len());
    }

    #[test]
    fn windowed_generation_is_bit_identical_when_windows_cover_tfis() {
        let aig = alsrac_circuits::arith::kogge_stone_adder(4);
        let patterns = PatternBuffer::random(8, 6, 11);
        let sim = Simulation::new(&aig, &patterns);
        let fanouts = aig.fanout_map();
        let config = LacConfig {
            lac_limit: 4,
            ..LacConfig::default()
        };
        let plain = generate_lacs(&aig, &sim, &patterns, &fanouts, &config);
        let windowed = generate_lacs_with(
            &aig,
            &sim,
            &patterns,
            &fanouts,
            &config,
            &WindowConfig::default(),
        );
        assert_eq!(plain.len(), windowed.len());
        for (a, b) in plain.iter().zip(&windowed) {
            assert_eq!(a.node, b.node);
            assert_eq!(a.divisors, b.divisors);
            assert_eq!(a.cover, b.cover);
            assert_eq!(a.est_cost, b.est_cost);
            assert_eq!(a.est_saved, b.est_saved);
        }
        // A tight window bound still yields a well-formed (possibly
        // different) candidate list.
        let bounded = generate_lacs_with(
            &aig,
            &sim,
            &patterns,
            &fanouts,
            &config,
            &WindowConfig {
                max_tfi: 4,
                ..WindowConfig::default()
            },
        );
        for lac in &bounded {
            assert!(!lac.divisors.is_empty() || lac.cover.num_cubes() <= 1);
        }
    }

    #[test]
    fn fewer_patterns_generate_more_lacs() {
        let aig = alsrac_circuits::arith::kogge_stone_adder(4);
        let fanouts = aig.fanout_map();
        let count_with = |rounds: usize| {
            let patterns = PatternBuffer::random(8, rounds, 7);
            let sim = Simulation::new(&aig, &patterns);
            generate_lacs(&aig, &sim, &patterns, &fanouts, &LacConfig::default()).len()
        };
        // The paper's premise: shrinking the care set (fewer rounds) makes
        // feasibility easier, so more LACs appear.
        assert!(
            count_with(2) >= count_with(200),
            "more patterns, fewer LACs"
        );
    }

    #[test]
    fn applying_a_lac_preserves_arity() {
        let aig = alsrac_circuits::arith::ripple_carry_adder(3);
        let patterns = PatternBuffer::random(6, 4, 9);
        let sim = Simulation::new(&aig, &patterns);
        let fanouts = aig.fanout_map();
        let lacs = generate_lacs(&aig, &sim, &patterns, &fanouts, &LacConfig::default());
        assert!(!lacs.is_empty());
        for lac in lacs.iter().take(5) {
            let approx = lac.apply(&aig).expect("no cycle");
            assert_eq!(approx.num_inputs(), aig.num_inputs());
            assert_eq!(approx.num_outputs(), aig.num_outputs());
        }
    }

    #[test]
    fn lac_on_exhaustive_patterns_is_exact() {
        // With ALL patterns as cares, a feasible LAC is an *exact*
        // resubstitution: applying it must not change the function.
        let aig = alsrac_circuits::arith::ripple_carry_adder(2);
        let patterns = PatternBuffer::exhaustive(4);
        let sim = Simulation::new(&aig, &patterns);
        let fanouts = aig.fanout_map();
        let lacs = generate_lacs(&aig, &sim, &patterns, &fanouts, &LacConfig::default());
        for lac in &lacs {
            let approx = lac.apply(&aig).expect("no cycle");
            let m = alsrac_metrics::measure(&aig, &approx, &patterns).expect("arity");
            assert_eq!(
                m.error_rate, 0.0,
                "exact resubstitution changed the function: {lac:?}"
            );
        }
    }

    #[test]
    fn est_gain_combines_cost_and_savings() {
        let lac = Lac {
            node: alsrac_aig::NodeId::new(5).lit(),
            divisors: vec![alsrac_aig::NodeId::new(1).lit()],
            cover: Sop::zero(),
            est_cost: 2,
            est_saved: 5,
        };
        assert_eq!(lac.est_gain(), 3);
    }

    #[test]
    fn kind_classifies_constants_and_resubs() {
        let mk = |divisors: Vec<alsrac_aig::Lit>, cover: Sop| Lac {
            node: alsrac_aig::NodeId::new(5).lit(),
            divisors,
            cover,
            est_cost: 0,
            est_saved: 0,
        };
        assert_eq!(mk(Vec::new(), Sop::zero()).kind(), "const0");
        assert_eq!(
            mk(
                Vec::new(),
                Sop::new(vec![alsrac_truthtable::Cube::TAUTOLOGY])
            )
            .kind(),
            "const1"
        );
        let d = alsrac_aig::NodeId::new(1).lit();
        assert_eq!(mk(vec![d, d], Sop::zero()).kind(), "resub2");
    }

    /// `generate_lacs_with` composed from the bit-serial harvest and the
    /// full-sort Algorithm 1 oracles.
    fn oracle_lacs(
        aig: &Aig,
        sim: &Simulation,
        patterns: &PatternBuffer,
        config: &LacConfig,
        window: &WindowConfig,
    ) -> Vec<Lac> {
        let fanouts = aig.fanout_map();
        let mut extractor = WindowExtractor::new();
        let mut lacs = Vec::new();
        for node in aig.iter_ands() {
            let extracted = window
                .enabled
                .then(|| extractor.extract(aig, &fanouts, node, &window.params()));
            let sets = crate::divisors::oracle::select_divisor_sets_with(
                aig,
                node,
                fanouts.levels(),
                extracted.as_ref(),
                &config.divisors,
            );
            let mut count = 0;
            for set in sets {
                if count >= config.lac_limit {
                    break;
                }
                let divisors: Vec<Lit> = set.iter().map(|d| d.lit()).collect();
                let Some(care) = crate::care::oracle::harvest(sim, patterns, node.lit(), &divisors)
                else {
                    continue;
                };
                let on = care.on_set();
                let upper = on.or(&care.dont_care_set());
                let cover = minimize(&isop(on, &upper), on, &care.dont_care_set());
                lacs.push(Lac {
                    node: node.lit(),
                    est_cost: factored_aig_cost(&cover, divisors.len()),
                    divisors,
                    cover,
                    est_saved: aig.mffc(node, &fanouts).len(),
                });
                count += 1;
            }
        }
        lacs
    }

    #[test]
    fn generation_matches_the_composed_oracles() {
        use alsrac_circuits::catalog::{self, Scale};
        let circuits = catalog::iscas_and_arith(Scale::Test)
            .into_iter()
            .chain(catalog::epfl_control(Scale::Test))
            .chain(catalog::epfl_arith(Scale::Test));
        let configs = [
            LacConfig::default(),
            LacConfig {
                lac_limit: 4,
                divisors: DivisorConfig {
                    max_sets: 1000,
                    include_extensions: true,
                },
            },
        ];
        let windows = [
            WindowConfig::default(),
            WindowConfig::disabled(),
            WindowConfig {
                max_tfi: 4,
                ..WindowConfig::default()
            },
        ];
        let mut total = 0;
        for bench in circuits {
            let aig = &bench.aig;
            let fanouts = aig.fanout_map();
            for (seed, num_patterns) in [(1, 32), (2, 128)] {
                let patterns = PatternBuffer::random(aig.num_inputs(), num_patterns, seed);
                let sim = Simulation::new(aig, &patterns);
                for config in &configs {
                    for window in &windows {
                        let got =
                            generate_lacs_with(aig, &sim, &patterns, &fanouts, config, window);
                        let want = oracle_lacs(aig, &sim, &patterns, config, window);
                        let context = format!(
                            "{} N={num_patterns} {config:?} {window:?}",
                            bench.paper_name
                        );
                        assert_eq!(got.len(), want.len(), "{context}");
                        for (a, b) in got.iter().zip(&want) {
                            assert_eq!(a.node, b.node, "{context}");
                            assert_eq!(a.divisors, b.divisors, "{context}");
                            assert_eq!(a.cover, b.cover, "{context}");
                            assert_eq!(a.est_cost, b.est_cost, "{context}");
                            assert_eq!(a.est_saved, b.est_saved, "{context}");
                        }
                        total += got.len();
                    }
                }
            }
        }
        assert!(total > 1000, "{total}");
    }
}
