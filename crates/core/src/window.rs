//! Windowed resubstitution configuration, and a signature-class
//! certificate that no flow calls.
//!
//! Windowing bounds the per-pivot work of LAC generation: instead of
//! walking the pivot's whole transitive fanin for divisor candidates, a
//! TFI walk bounded by [`WindowConfig::max_tfi`] nodes
//! ([`alsrac_aig::Window`]) collects the divisor pool. On circuits whose
//! TFI cones fit inside the bound the pool — and therefore the whole flow — is
//! bit-identical to the unwindowed path; on larger circuits the bound is
//! what keeps LAC generation near-linear. The care-set harvest alone
//! decides which divisor sets of the pool are feasible.
//!
//! The second half of this module is [`provably_infeasible`]: an exact
//! O(|divisors|) certificate, computed from signature equivalence classes,
//! that [`crate::care::ApproximateCareSet::harvest`] would reject a divisor
//! set. LAC generation no longer screens with it: the word-parallel
//! harvest rejects the same sets, so the screen only repeated part of
//! that test. It stays public, with its tests, only because the
//! benchmark's stage-by-stage `lac_gen` probe (`alsbench/src/probes.rs`)
//! still imports it. Why it is exact:
//!
//! * Every divisor's signature is, up to complement, either constant or
//!   equal to its class representative. If the divisors span **zero**
//!   non-constant classes, every care pattern presents the same divisor
//!   row, so the target must be constant on the care patterns; otherwise
//!   two patterns conflict and harvest returns `None`.
//! * If they span exactly **one** non-constant class `c`, the divisor row
//!   is a function of that class's representative bit alone, so the target
//!   must itself be constant or in class `c`; any other target takes both
//!   values on two patterns with equal divisor rows.
//! * With **two or more** classes the certificate is silent (returns
//!   `false`).

use alsrac_aig::{NodeId, WindowParams};
use alsrac_sim::Signatures;

/// Windowing knobs threaded through [`crate::flow::FlowConfig`].
#[derive(Clone, Debug)]
pub struct WindowConfig {
    /// Master switch. `false` gives every pivot its whole TFI as its
    /// divisor pool.
    pub enabled: bool,
    /// Collected-node count at which the TFI walk stops expanding (`0` =
    /// unbounded). Bounds at or above a pivot's TFI size leave the divisor
    /// pool unchanged.
    pub max_tfi: usize,
}

impl Default for WindowConfig {
    fn default() -> WindowConfig {
        WindowConfig {
            enabled: true,
            max_tfi: 1000,
        }
    }
}

impl WindowConfig {
    /// A configuration with windowing switched off (the determinism
    /// suite's reference behavior).
    pub fn disabled() -> WindowConfig {
        WindowConfig {
            enabled: false,
            ..WindowConfig::default()
        }
    }

    /// The extraction parameters for [`alsrac_aig::WindowExtractor`].
    pub fn params(&self) -> WindowParams {
        WindowParams {
            max_tfi: self.max_tfi,
        }
    }
}

/// Returns `true` iff the signature classes *prove* that harvesting
/// `divisors` for `target` must fail (conflicting target demands on equal
/// divisor rows). A `false` return is silent — the harvest must still run.
///
/// Exact with respect to
/// [`harvest`](crate::care::ApproximateCareSet::harvest) on the same
/// simulation/patterns the signature table was built from, so skipping
/// certified sets would never change a LAC list. No flow calls it (see
/// the module docs).
pub fn provably_infeasible(signatures: &Signatures, target: NodeId, divisors: &[NodeId]) -> bool {
    let target_class = signatures.class(target);
    // The target's demanded values are constant per divisor row whenever
    // the target is constant, no matter the divisors.
    if target_class == 0 {
        return false;
    }
    // Collect the distinct non-constant classes among the divisors. Only
    // counts 0, 1, and "many" matter.
    let mut first: Option<u32> = None;
    for &d in divisors {
        let class = signatures.class(d);
        if class == 0 {
            continue;
        }
        match first {
            None => first = Some(class),
            Some(c) if c == class => {}
            Some(_) => return false, // >= 2 classes: no certificate
        }
    }
    match first {
        // All-constant divisor rows but a non-constant target: conflict.
        None => true,
        // One class: feasible only if the target follows that class.
        Some(c) => target_class != c,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::care::ApproximateCareSet;
    use alsrac_aig::Aig;
    use alsrac_sim::{PatternBuffer, Simulation};

    /// Exhaustively cross-checks the certificate against harvest on every
    /// (target, divisor-pair) combination of a small circuit: whenever the
    /// certificate fires, harvest must reject.
    #[test]
    fn certificate_is_sound_against_harvest() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let ab = aig.and(a, b);
        let ab_or_c = aig.or(ab, c);
        let x = aig.xor(a, b);
        let dead = aig.and(a, !a);
        aig.add_output("y", ab_or_c);
        aig.add_output("x", x);
        aig.add_output("d", dead);
        let patterns = PatternBuffer::exhaustive(3);
        let sim = Simulation::new(&aig, &patterns);
        let sigs = Signatures::build(&aig, &sim, &patterns);

        let nodes: Vec<NodeId> = aig.iter_nodes().collect();
        let mut fired = 0u32;
        for &target in &nodes {
            for &d0 in &nodes {
                for &d1 in &nodes {
                    if d0 == d1 || d0 == target || d1 == target {
                        continue;
                    }
                    let infeasible = provably_infeasible(&sigs, target, &[d0, d1]);
                    if infeasible {
                        fired += 1;
                        let harvested = ApproximateCareSet::harvest(
                            &sim,
                            &patterns,
                            target.lit(),
                            &[d0.lit(), d1.lit()],
                        );
                        assert!(
                            harvested.is_none(),
                            "certificate wrongly rejected target {target} over ({d0}, {d1})"
                        );
                    }
                }
            }
        }
        assert!(fired > 0, "certificate never fired on the sample circuit");
    }

    #[test]
    fn constant_target_is_never_certified_infeasible() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let dead = aig.and(a, !a);
        aig.add_output("d", dead);
        let patterns = PatternBuffer::exhaustive(1);
        let sim = Simulation::new(&aig, &patterns);
        let sigs = Signatures::build(&aig, &sim, &patterns);
        assert!(!provably_infeasible(&sigs, dead.node(), &[a.node()]));
    }

    #[test]
    fn disabled_config_reports_disabled() {
        let config = WindowConfig::disabled();
        assert!(!config.enabled);
        let params = WindowConfig::default().params();
        assert_eq!(params.max_tfi, 1000);
    }
}
