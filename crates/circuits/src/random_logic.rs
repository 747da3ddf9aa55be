//! Seeded random logic networks.
//!
//! Used in two roles: as stand-ins for the irregular control benchmarks
//! (`cavlc`, `i2c ctrl`, `mem ctrl` and friends have no closed-form
//! specification we can regenerate, but any dense random multi-level
//! network exercises the same synthesis code paths), and as the circuit
//! source for the property-based tests of the synthesis and mapping crates.

use alsrac_aig::{Aig, Lit};
use alsrac_rt::Rng;

/// Configuration for [`random_network`].
#[derive(Clone, Debug)]
pub struct RandomNetworkConfig {
    /// Number of primary inputs.
    pub num_inputs: usize,
    /// Number of primary outputs.
    pub num_outputs: usize,
    /// Number of AND nodes to attempt to create.
    pub num_gates: usize,
    /// How far back a gate may reach for its fanins: a gate prefers recent
    /// literals when this is small, giving deeper, narrower networks.
    pub locality: usize,
    /// RNG seed; the same configuration and seed give the same circuit.
    pub seed: u64,
}

impl Default for RandomNetworkConfig {
    fn default() -> RandomNetworkConfig {
        RandomNetworkConfig {
            num_inputs: 8,
            num_outputs: 4,
            num_gates: 60,
            locality: 24,
            seed: 1,
        }
    }
}

/// Generates a random multi-level AIG.
///
/// Gates pick two distinct earlier literals (optionally complemented) from
/// a sliding window of recent signals; outputs are drawn from the last
/// created signals so most of the network stays alive after sweeping.
/// Structural hashing may merge some requested gates, so `num_ands()` can
/// be slightly below `num_gates`.
///
/// # Panics
///
/// Panics if `num_inputs == 0` or `num_outputs == 0`.
pub fn random_network(config: &RandomNetworkConfig) -> Aig {
    assert!(config.num_inputs > 0, "need at least one input");
    assert!(config.num_outputs > 0, "need at least one output");
    let mut rng = Rng::from_seed(config.seed);
    let mut aig = Aig::new(format!("rand_s{}", config.seed));
    let mut signals: Vec<Lit> = aig.add_inputs("x", config.num_inputs);

    for _ in 0..config.num_gates {
        let window = config.locality.max(2).min(signals.len());
        let lo = signals.len() - window;
        let i = rng.gen_range(lo..signals.len());
        let mut j = rng.gen_range(lo..signals.len());
        if i == j {
            j = if j + 1 < signals.len() { j + 1 } else { lo };
        }
        let a = signals[i].complement_if(rng.gen_bool(0.5));
        let b = signals[j].complement_if(rng.gen_bool(0.5));
        let g = aig.and(a, b);
        signals.push(g);
    }

    let tail = signals.len().saturating_sub(config.num_outputs * 2);
    for o in 0..config.num_outputs {
        let idx = rng.gen_range(tail..signals.len());
        let lit = signals[idx].complement_if(rng.gen_bool(0.5));
        aig.add_output(format!("y{o}"), lit);
    }
    aig
}

/// A seeded random network sized to mimic a mid-size control benchmark
/// (`i2c`/`cavlc` class).
///
/// Gates and outputs are drawn as in [`random_network`], but randomly
/// polarized ANDs drift towards constant signals with depth. So each gate
/// takes the fanin polarities that bring its probability of being 1,
/// estimated as if its fanins were independent, nearest ½ (ties broken at
/// random), among the polarities whose value is not constant on 256
/// simulated patterns (every pattern of the first 8 inputs, seeded random
/// values for the rest); a gate with no such polarity is dropped. Every
/// output is then a function of the inputs.
pub fn control_like(name: &str, num_inputs: usize, num_gates: usize, seed: u64) -> Aig {
    let mut rng = Rng::from_seed(seed);
    let mut aig = Aig::new(name.to_string());
    let inputs = aig.add_inputs("x", num_inputs);
    // Each signal with its probability of being 1 and its simulated words.
    let mut signals: Vec<(Lit, f64, [u64; 4])> = Vec::with_capacity(num_inputs + num_gates);
    for (i, x) in inputs.into_iter().enumerate() {
        let words = std::array::from_fn(|w| match i {
            0..=5 => (0..64).filter(|b| b >> i & 1 == 1).map(|b| 1 << b).sum(),
            6 | 7 => 0u64.wrapping_sub((w >> (i - 6) & 1) as u64),
            _ => rng.next_u64(),
        });
        signals.push((x, 0.5, words));
    }
    let locality = num_gates / 4 + 8;
    for _ in 0..num_gates {
        let lo = signals.len().saturating_sub(locality);
        let i = rng.gen_range(lo..signals.len());
        let mut j = rng.gen_range(lo..signals.len());
        if i == j {
            j = if j + 1 < signals.len() { j + 1 } else { lo };
        }
        let ((a, pa, wa), (b, pb, wb)) = (signals[i], signals[j]);
        let first = rng.gen_range(0..4);
        let best = (first..first + 4)
            .map(|k| {
                let (ca, cb) = (k & 1 == 1, k & 2 == 2);
                let p = if ca { 1.0 - pa } else { pa } * if cb { 1.0 - pb } else { pb };
                let flip = |c: bool| 0u64.wrapping_sub(u64::from(c));
                let words: [u64; 4] =
                    std::array::from_fn(|w| (wa[w] ^ flip(ca)) & (wb[w] ^ flip(cb)));
                (ca, cb, p, words)
            })
            .filter(|(.., words)| words.iter().any(|&w| w != 0) && words.iter().any(|&w| w != !0))
            .min_by(|x, y| (x.2 - 0.5).abs().total_cmp(&(y.2 - 0.5).abs()));
        if let Some((ca, cb, p, words)) = best {
            signals.push((aig.and(a.complement_if(ca), b.complement_if(cb)), p, words));
        }
    }
    let num_outputs = (num_inputs / 2).max(1);
    let tail = signals.len().saturating_sub(num_outputs * 2);
    for o in 0..num_outputs {
        let (lit, ..) = signals[rng.gen_range(tail..signals.len())];
        aig.add_output(format!("y{o}"), lit.complement_if(rng.gen_bool(0.5)));
    }
    aig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let cfg = RandomNetworkConfig::default();
        let a = random_network(&cfg);
        let b = random_network(&cfg);
        assert_eq!(a.num_ands(), b.num_ands());
        // Same structure: same evaluation on sampled patterns.
        for p in 0..16u64 {
            let bits: Vec<bool> = (0..8).map(|i| p >> i & 1 != 0).collect();
            assert_eq!(a.evaluate(&bits), b.evaluate(&bits));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = random_network(&RandomNetworkConfig::default());
        let b = random_network(&RandomNetworkConfig {
            seed: 2,
            ..RandomNetworkConfig::default()
        });
        let mut any_diff = false;
        for p in 0..64u64 {
            let bits: Vec<bool> = (0..8).map(|i| p >> i & 1 != 0).collect();
            if a.evaluate(&bits) != b.evaluate(&bits) {
                any_diff = true;
                break;
            }
        }
        assert!(any_diff, "two seeds produced identical functions");
    }

    #[test]
    fn creates_roughly_requested_size() {
        let cfg = RandomNetworkConfig {
            num_gates: 200,
            ..RandomNetworkConfig::default()
        };
        let aig = random_network(&cfg);
        assert!(aig.num_ands() > 100, "size {}", aig.num_ands());
        assert!(aig.num_ands() <= 200);
        assert_eq!(aig.num_inputs(), 8);
        assert_eq!(aig.num_outputs(), 4);
    }

    #[test]
    fn control_like_names_and_sizes() {
        let aig = control_like("i2c_like", 16, 300, 7);
        assert_eq!(aig.name(), "i2c_like");
        assert_eq!(aig.num_inputs(), 16);
        assert!(aig.num_ands() > 150);
    }

    #[test]
    fn outputs_survive_sweep() {
        let aig = random_network(&RandomNetworkConfig::default());
        let cleaned = aig.cleaned();
        // Most of the logic should be reachable from the outputs.
        assert!(cleaned.num_ands() * 4 >= aig.num_ands());
    }
}
