//! Property tests for the event-driven simulation engine: the
//! scratch-arena flip propagation is a pure optimization, bit-identical to
//! full-cone recomputation on arbitrary circuits, and batch estimates
//! equal the error of applying each LAC directly at every thread count.
//!
//! Runs on the `alsrac-rt` property harness (same pattern as
//! `equivalence_props.rs`): properties generate a network *shape* and
//! build the circuit inside, so failures shrink toward smaller graphs.

use alsrac_rt::{check, pool, prop_assert_eq, u64s, usizes, Config, Gen};
use alsrac_suite::aig::{Aig, NodeId};
use alsrac_suite::circuits::random_logic::{random_network, RandomNetworkConfig};
use alsrac_suite::core::estimate::Estimator;
use alsrac_suite::core::lac::{generate_lacs, LacConfig};
use alsrac_suite::metrics::{measure, ErrorMetric};
use alsrac_suite::sim::{FlipInfluence, InfluenceScratch, OutputIndex, PatternBuffer, Simulation};

#[path = "../crates/sim/tests/support/full_cone.rs"]
mod full_cone;

fn config() -> Config {
    Config::with_cases(32)
}

/// Generator of network shapes: `(num_inputs, num_outputs, num_gates, seed)`.
fn networks() -> impl Gen<Value = (usize, usize, usize, u64)> {
    (usizes(2..9), usizes(1..5), usizes(5..70), u64s())
}

fn build(&(num_inputs, num_outputs, num_gates, seed): &(usize, usize, usize, u64)) -> Aig {
    random_network(&RandomNetworkConfig {
        num_inputs,
        num_outputs,
        num_gates,
        locality: 16,
        seed,
    })
}

/// Word-for-word comparison of an influence against the oracle's dense
/// masks (per output and the any-output union). The masks are the
/// influence's entire observable state.
fn assert_same_influence(fast: &FlipInfluence, full: &[Vec<u64>]) -> Result<(), String> {
    prop_assert_eq!(fast.num_outputs(), full.len());
    let mut any = vec![0u64; fast.any_mask().len()];
    for (po, full_po) in full.iter().enumerate() {
        prop_assert_eq!(fast.po_mask(po), full_po.as_slice());
        for (a, &w) in any.iter_mut().zip(full_po) {
            *a |= w;
        }
    }
    prop_assert_eq!(fast.any_mask(), any.as_slice());
    Ok(())
}

#[test]
fn scratch_arena_influence_matches_full_cone_on_random_graphs() {
    check(
        "event-driven influence == full-cone influence",
        &config(),
        &networks(),
        |cfg| {
            let aig = build(cfg);
            let patterns = PatternBuffer::random(aig.num_inputs(), 192, cfg.3 ^ 0x9e37);
            let sim = Simulation::new(&aig, &patterns);
            let fanouts = aig.fanout_map();
            let outputs = OutputIndex::new(&aig);
            // One scratch reused across every node: stale state leaking
            // from one propagation into the next would show up here.
            let mut scratch = InfluenceScratch::new();
            for raw in 0..aig.num_nodes() {
                let node = NodeId::new(raw);
                let fast =
                    FlipInfluence::compute(&aig, &sim, &fanouts, &outputs, node, &mut scratch);
                let full = full_cone::full_cone_influence(&aig, &sim, &fanouts, node);
                assert_same_influence(&fast, &full)?;
            }
            Ok(())
        },
    );
}

#[test]
fn estimation_matches_direct_application_at_every_thread_count() {
    // Every estimate must equal the measured error of applying the LAC and
    // re-simulating, bit for bit, whatever the pool's worker count (one
    // scratch per worker). ER takes the sparse rate-only compare and leaves
    // the distance metrics unpopulated; NMED takes the full decode.
    check(
        "estimate_all == measure(lac.apply) at 1/3/7 threads",
        &Config::with_cases(16),
        &networks(),
        |cfg| {
            let aig = build(cfg);
            let care_patterns = PatternBuffer::random(aig.num_inputs(), 4, cfg.3 ^ 0x51);
            let care_sim = Simulation::new(&aig, &care_patterns);
            let fanouts = aig.fanout_map();
            let lacs = generate_lacs(
                &aig,
                &care_sim,
                &care_patterns,
                &fanouts,
                &LacConfig::default(),
            );
            let est_patterns = PatternBuffer::random(aig.num_inputs(), 256, cfg.3 ^ 0xa3);
            // Cyclic substitutions have no direct application to compare.
            let direct: Vec<_> = lacs
                .iter()
                .map(|lac| {
                    let applied = lac.apply(&aig).ok()?;
                    Some(measure(&aig, &applied, &est_patterns).expect("same arity"))
                })
                .collect();
            let sim = Simulation::new(&aig, &est_patterns);
            let outputs = sim.output_words(&aig);
            for metric in [ErrorMetric::ErrorRate, ErrorMetric::Nmed] {
                let estimator =
                    Estimator::new(&outputs, &sim, &aig, &est_patterns, &fanouts, metric);
                for threads in [1, 3, 7] {
                    let got = pool::with_threads(threads, || estimator.estimate_all(&lacs));
                    prop_assert_eq!(got.len(), lacs.len());
                    for (est, want) in got.iter().zip(&direct) {
                        let Some(want) = want else { continue };
                        prop_assert_eq!(est.num_patterns, want.num_patterns);
                        prop_assert_eq!(est.error_rate.to_bits(), want.error_rate.to_bits());
                        if metric == ErrorMetric::ErrorRate {
                            prop_assert_eq!(est.nmed, None);
                        } else {
                            prop_assert_eq!(
                                est.nmed.map(f64::to_bits),
                                want.nmed.map(f64::to_bits)
                            );
                            prop_assert_eq!(
                                est.mred.map(f64::to_bits),
                                want.mred.map(f64::to_bits)
                            );
                            prop_assert_eq!(est.max_error_distance, want.max_error_distance);
                        }
                    }
                }
            }
            Ok(())
        },
    );
}
