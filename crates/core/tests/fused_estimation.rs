//! Property suite for the estimation pass.
//!
//! [`Estimator::estimate_all`] evaluates every LAC candidate through one
//! fused pass: influence rows are built during the flip propagation walk
//! and compared against the reference outputs without materializing
//! candidate output words. Its oracle is direct application: apply the
//! LAC, re-simulate, and measure with [`alsrac_metrics::measure`] on the
//! same patterns. The two must agree **bit for bit** in `f64`: the flow's
//! apply/stop decisions compare estimates against thresholds, so even one
//! ULP of drift could change which LAC lands.
//!
//! This test pins that on an evolving circuit: it repeatedly generates
//! candidates, checks both compare paths (ER's sparse rate-only compare,
//! NMED's full decode) at 1, 3, and 7 worker threads, then actually
//! applies a LAC and re-checks on the rebuilt graph (estimates are always
//! relative to the *original* circuit, so later rounds also exercise
//! non-zero accumulated baseline error).

use alsrac::estimate::Estimator;
use alsrac::lac::{generate_lacs, LacConfig};
use alsrac_circuits::arith;
use alsrac_metrics::{measure, ErrorMetric, Measurement};
use alsrac_rt::pool;
use alsrac_sim::{PatternBuffer, Simulation};

fn assert_bit_identical(a: &Measurement, b: &Measurement, what: &str) {
    assert_eq!(a.num_patterns, b.num_patterns, "{what}: num_patterns");
    assert_eq!(
        a.error_rate.to_bits(),
        b.error_rate.to_bits(),
        "{what}: error_rate {} vs {}",
        a.error_rate,
        b.error_rate
    );
    assert_eq!(
        a.nmed.map(f64::to_bits),
        b.nmed.map(f64::to_bits),
        "{what}: nmed"
    );
    assert_eq!(
        a.mred.map(f64::to_bits),
        b.mred.map(f64::to_bits),
        "{what}: mred"
    );
    assert_eq!(
        a.max_error_distance, b.max_error_distance,
        "{what}: max_error_distance"
    );
}

#[test]
fn estimates_match_direct_application_across_lac_applies_and_threads() {
    let original = arith::ripple_carry_adder(3);
    let mut current = original.clone();
    // 200 patterns -> 4 words, the last one partial and masked in the
    // compare loops.
    let est_patterns = PatternBuffer::random(original.num_inputs(), 200, 23);
    let original_outputs = Simulation::new(&original, &est_patterns).output_words(&original);

    let mut rounds_checked = 0usize;
    for round in 0..3u64 {
        let fanouts = current.fanout_map();
        let care_patterns = PatternBuffer::random(current.num_inputs(), 8, 5 + round);
        let care_sim = Simulation::new(&current, &care_patterns);
        let lacs = generate_lacs(
            &current,
            &care_sim,
            &care_patterns,
            &fanouts,
            &LacConfig {
                lac_limit: 3,
                ..LacConfig::default()
            },
        );
        if lacs.is_empty() {
            break;
        }

        // Cyclic substitutions have no direct application to compare.
        let direct: Vec<Option<Measurement>> = lacs
            .iter()
            .map(|lac| {
                let applied = lac.apply(&current).ok()?;
                Some(measure(&original, &applied, &est_patterns).expect("same arity"))
            })
            .collect();
        assert!(
            direct.iter().any(Option::is_some),
            "round {round}: every LAC cycles"
        );
        let sim = Simulation::new(&current, &est_patterns);
        for metric in [ErrorMetric::ErrorRate, ErrorMetric::Nmed] {
            let estimator = Estimator::new(
                &original_outputs,
                &sim,
                &current,
                &est_patterns,
                &fanouts,
                metric,
            );
            for threads in [1usize, 3, 7] {
                let got = pool::with_threads(threads, || estimator.estimate_all(&lacs));
                assert_eq!(got.len(), lacs.len());
                for (i, (g, want)) in got.iter().zip(&direct).enumerate() {
                    let Some(want) = want else { continue };
                    let what = format!("{metric} round {round}, {threads} threads, lac {i}");
                    if metric == ErrorMetric::ErrorRate {
                        // Sparse rate-only compare: bit-identical
                        // error_rate, distance metrics deliberately
                        // unpopulated (ER ranking never reads them).
                        assert_eq!(g.num_patterns, want.num_patterns, "{what}: num_patterns");
                        assert_eq!(
                            g.error_rate.to_bits(),
                            want.error_rate.to_bits(),
                            "{what}: error_rate {} vs {}",
                            g.error_rate,
                            want.error_rate
                        );
                        assert_eq!(g.nmed, None, "{what}: nmed must be skipped");
                        assert_eq!(g.mred, None, "{what}: mred must be skipped");
                        assert_eq!(
                            g.max_error_distance, None,
                            "{what}: max_error_distance must be skipped"
                        );
                    } else {
                        assert_bit_identical(g, want, &what);
                    }
                }
            }
        }
        rounds_checked += 1;

        // Apply a real LAC so the next round estimates on a structurally
        // changed circuit with accumulated error against the original.
        current = lacs[0].apply(&current).expect("LAC applies without cycle");
    }
    assert!(
        rounds_checked >= 2,
        "only {rounds_checked} rounds produced candidates — the apply loop is vacuous"
    );
}
