//! Approximate care sets at divisor signals (§III-A, §III-B2).
//!
//! Simulating the circuit on `N` sampled input patterns and recording the
//! patterns that appear at a chosen divisor set yields the *approximate
//! cares of the node at the divisors*. Expressing cares at divisors rather
//! than at the primary inputs is the paper's scalability argument: a few
//! divisor patterns stand for many PI patterns.
//!
//! The same observation powers the feasibility check: a divisor set can
//! express the node (Theorem 1, restricted to the sampled patterns) exactly
//! when no observed divisor pattern demands both output values.

use alsrac_aig::Lit;
use alsrac_sim::{PatternBuffer, Simulation};
use alsrac_truthtable::Tt;

/// Most divisors [`ApproximateCareSet::harvest`] accepts: the `2^6 = 64`
/// divisor patterns index the bits of one `u64`.
const MAX_DIVISORS: usize = 6;

/// The approximate care set of one node at one divisor set: the observed
/// divisor patterns and the node value each demands.
///
/// Construction fails (returns `None`) when the divisors are *infeasible*:
/// some observed pattern appeared with both node values, so no function of
/// the divisors can reproduce the node on the sampled patterns.
#[derive(Clone, Debug)]
pub struct ApproximateCareSet {
    num_divisors: usize,
    /// On-set: care patterns whose node value is 1.
    on: Tt,
    /// All observed care patterns.
    care: Tt,
}

impl ApproximateCareSet {
    /// Harvests the care patterns of the signal `node` at the divisor
    /// signals `divisors` from a simulation, checking feasibility on the
    /// fly. Divisors and the target are *literals*: a complemented edge is
    /// a distinct signal, exactly as in the paper's examples.
    ///
    /// Only the first `patterns.num_patterns()` lanes are read. Returns
    /// `None` if the divisor set is infeasible (Example 2 of the paper) —
    /// the common, cheap rejection path of Algorithm 2, line 8.
    ///
    /// The check is word-parallel: per 64-lane simulation word, each
    /// distinct divisor pattern present gets one lane mask (the AND over
    /// the divisors of each divisor's word or its complement, whichever
    /// holds at the lowest lane not yet classified), and the set is
    /// rejected as soon as the target word is mixed under a mask or
    /// contradicts the value that pattern demanded in an earlier word. A
    /// word therefore costs one mask per distinct pattern (at most `2^k`
    /// for `k` divisors) rather than one bit read per lane per divisor.
    /// On- and care-set live in one `u64` each while harvesting, which
    /// allows at most 6 divisors; the rejection path allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `divisors` is empty or holds more than 6 divisors.
    pub fn harvest(
        sim: &Simulation,
        patterns: &PatternBuffer,
        node: Lit,
        divisors: &[Lit],
    ) -> Option<ApproximateCareSet> {
        let k = divisors.len();
        assert!(
            (1..=MAX_DIVISORS).contains(&k),
            "harvest takes 1 to {MAX_DIVISORS} divisors, got {k}"
        );
        let mut on = 0u64;
        let mut care = 0u64;
        let mut words = [0u64; MAX_DIVISORS];
        for w in 0..patterns.num_words() {
            for (word, &d) in words.iter_mut().zip(divisors) {
                *word = sim.lit_word(d, w);
            }
            let target = sim.lit_word(node, w);
            let mut lanes = patterns.word_mask(w);
            while lanes != 0 {
                let lane = lanes.trailing_zeros();
                let mut mask = lanes;
                let mut pattern = 0u32;
                for (i, &word) in words[..k].iter().enumerate() {
                    let bit = word >> lane & 1;
                    // `bit - 1` is 0 when the lane reads 1 and all ones
                    // when it reads 0: keep the lanes that agree with it.
                    mask &= word ^ bit.wrapping_sub(1);
                    pattern |= (bit as u32) << i;
                }
                let hits = target & mask;
                if hits != 0 && hits != mask {
                    return None; // both values within this word
                }
                let seen = 1u64 << pattern;
                let demand = ((hits != 0) as u64) << pattern;
                if care & seen != 0 && on & seen != demand {
                    return None; // the opposite value in an earlier word
                }
                care |= seen;
                on |= demand;
                lanes &= !mask;
            }
        }
        Some(ApproximateCareSet {
            num_divisors: k,
            on: Tt::from_bits(k, on),
            care: Tt::from_bits(k, care),
        })
    }

    /// Number of divisor variables.
    pub fn num_divisors(&self) -> usize {
        self.num_divisors
    }

    /// The on-set over the divisor variables (care patterns demanding 1).
    pub fn on_set(&self) -> &Tt {
        &self.on
    }

    /// All observed care patterns.
    pub fn care_set(&self) -> &Tt {
        &self.care
    }

    /// The don't-care set: divisor patterns never observed.
    pub fn dont_care_set(&self) -> Tt {
        self.care.not()
    }

    /// Number of distinct care patterns observed.
    pub fn num_care_patterns(&self) -> u32 {
        self.care.count_ones()
    }
}

/// The bit-serial harvest that [`ApproximateCareSet::harvest`] replaced:
/// one bit read per lane per divisor into a growing care table. Kept as
/// the reference the word-parallel check is tested against.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    pub(crate) fn harvest(
        sim: &Simulation,
        patterns: &PatternBuffer,
        node: Lit,
        divisors: &[Lit],
    ) -> Option<ApproximateCareSet> {
        assert!(!divisors.is_empty(), "at least one divisor required");
        let k = divisors.len();
        let mut on = Tt::zero(k);
        let mut care = Tt::zero(k);
        for p in 0..patterns.num_patterns() {
            let mut pattern = 0usize;
            for (i, &d) in divisors.iter().enumerate() {
                if sim.lit_bit(d, p) {
                    pattern |= 1 << i;
                }
            }
            let value = sim.lit_bit(node, p);
            if care.get(pattern) {
                if on.get(pattern) != value {
                    return None; // conflicting demand: infeasible divisors
                }
            } else {
                care.set(pattern, true);
                if value {
                    on.set(pattern, true);
                }
            }
        }
        Some(ApproximateCareSet {
            num_divisors: k,
            on,
            care,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alsrac_aig::Aig;
    use alsrac_circuits::catalog::{self, Scale};
    use alsrac_circuits::random_logic::{random_network, RandomNetworkConfig};
    use alsrac_rt::Rng;

    /// The paper's Fig. 1a circuit. Returns (aig, nodes...) with the same
    /// signal names: inputs a,b,c,d; x = !a & !c; y = c & (a|b)... the
    /// paper defines structure loosely; we reproduce the *node value table*
    /// (Table I) exactly:
    ///   x = !a & !b & !c? — from Table I: x=1 for abcd in {0000,0001,0010,
    ///   0011}: x = !a & !b.
    ///   y = 1 for {0110,0111,1110,1111}: y = b & c.
    ///   u = 1 whenever... from the table: u = 0 at {0000,0100,1000,1100}
    ///   i.e. u = c | d.
    ///   z = 1 at {0100,0101,1000,1001,1010,1011,1100,1101}:
    ///   z = (a & !b) | (b & !c).
    ///   w = 1 at {0000,0001,0100,0101,1000,1001,1100,1101}: w = !c.
    ///   v = z ^ w (the paper says so).
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
        (aig, u, z, v)
    }

    /// The 5 shaded PI patterns of Example 1: abcd in {0000, 0010, 0011,
    /// 0100, 1000} (a is the MSB in the paper's "abcd" notation).
    fn example1_patterns() -> PatternBuffer {
        let rows = vec![
            vec![false, false, false, false], // 0000
            vec![false, false, true, false],  // 0010
            vec![false, false, true, true],   // 0011
            vec![false, true, false, false],  // 0100
            vec![true, false, false, false],  // 1000
        ];
        PatternBuffer::from_rows(4, &rows)
    }

    #[test]
    fn paper_example_1_care_patterns() {
        let (aig, u, z, v) = fig1();
        let patterns = example1_patterns();
        let sim = Simulation::new(&aig, &patterns);
        let care = ApproximateCareSet::harvest(&sim, &patterns, v, &[u, z])
            .expect("feasible per Example 3");
        // Approximate cares at {u, z}: {00, 01, 10} (Example 1).
        assert_eq!(care.num_care_patterns(), 3);
        assert!(care.care_set().get(0b00));
        assert!(care.care_set().get(0b01));
        assert!(care.care_set().get(0b10));
        assert!(!care.care_set().get(0b11));
        // v's demanded values: 00 -> 1, 01 -> 0, 10 -> 0 (Example 3;
        // pattern bits are (u, z) with u = bit 0).
        assert!(care.on_set().get(0b00));
        assert!(!care.on_set().get(0b01));
        assert!(!care.on_set().get(0b10));
    }

    #[test]
    fn paper_example_2_infeasible_on_all_patterns() {
        // Under ALL 16 patterns, {u, z} cannot express v (Example 2).
        let (aig, u, z, v) = fig1();
        let patterns = PatternBuffer::exhaustive(4);
        let sim = Simulation::new(&aig, &patterns);
        assert!(ApproximateCareSet::harvest(&sim, &patterns, v, &[u, z]).is_none());
    }

    #[test]
    fn fig1_node_table_matches_paper() {
        // Sanity: our reconstruction reproduces Table I for v.
        let (aig, _, _, v) = fig1();
        let patterns = PatternBuffer::exhaustive(4);
        let sim = Simulation::new(&aig, &patterns);
        // v = 1 at abcd in {0000, 0001, 1010, 1011} (Table I).
        let v_is_one = [
            (0b0000usize, true),
            (0b0001, true),
            (0b0010, false),
            (0b0100, false),
            (0b1010, true),
            (0b1011, true),
            (0b1111, false),
        ];
        for (abcd, want) in v_is_one {
            // abcd in paper order: a = MSB. Input i of the buffer is bit i
            // of the exhaustive pattern index, and our inputs are (a,b,c,d)
            // in order, so pattern index p has a = bit 0.
            let p = ((abcd >> 3) & 1)
                | ((abcd >> 2) & 1) << 1
                | ((abcd >> 1) & 1) << 2
                | (abcd & 1) << 3;
            assert_eq!(sim.lit_bit(v, p), want, "abcd={abcd:04b}");
        }
    }

    #[test]
    fn feasible_when_divisors_include_support() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let x = aig.xor(a, b);
        aig.add_output("y", x);
        let patterns = PatternBuffer::exhaustive(2);
        let sim = Simulation::new(&aig, &patterns);
        let care = ApproximateCareSet::harvest(&sim, &patterns, x, &[a, b])
            .expect("inputs always express the node");
        assert_eq!(care.num_care_patterns(), 4);
        assert!(care.dont_care_set().is_const0());
    }

    #[test]
    fn fewer_patterns_mean_more_dont_cares() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let ab = aig.and(a, b);
        let x = aig.or(ab, c);
        aig.add_output("y", x);
        let few = PatternBuffer::random(3, 2, 42);
        let sim = Simulation::new(&aig, &few);
        let care = ApproximateCareSet::harvest(&sim, &few, x, &[a, b, c]).expect("feasible");
        assert!(care.num_care_patterns() <= 2);
        assert!(care.dont_care_set().count_ones() >= 6);
    }

    /// Every Test-scale catalog circuit plus random networks of a few
    /// seeds: the harvest oracles' common circuit set.
    fn oracle_circuits() -> Vec<Aig> {
        let mut circuits: Vec<Aig> = catalog::iscas_and_arith(Scale::Test)
            .into_iter()
            .chain(catalog::epfl_control(Scale::Test))
            .chain(catalog::epfl_arith(Scale::Test))
            .map(|b| b.aig)
            .collect();
        circuits.extend((1..=4).map(|seed| {
            random_network(&RandomNetworkConfig {
                seed,
                ..RandomNetworkConfig::default()
            })
        }));
        circuits
    }

    #[test]
    fn word_parallel_harvest_matches_the_bit_serial_oracle() {
        let mut rng = Rng::from_seed(16);
        let (mut feasible, mut infeasible) = (0usize, 0usize);
        for aig in oracle_circuits() {
            let nodes: Vec<_> = aig.iter_nodes().collect();
            let pick = |rng: &mut Rng| {
                nodes[rng.gen_range(0..nodes.len())]
                    .lit()
                    .complement_if(rng.gen_bool(0.5))
            };
            for num_patterns in [1, 31, 32, 33, 63, 64, 65, 130] {
                let patterns =
                    PatternBuffer::random(aig.num_inputs(), num_patterns, rng.next_u64());
                let sim = Simulation::new(&aig, &patterns);
                for k in 1..=MAX_DIVISORS {
                    for _ in 0..16 {
                        let node = pick(&mut rng);
                        let divisors: Vec<Lit> = (0..k).map(|_| pick(&mut rng)).collect();
                        let got = ApproximateCareSet::harvest(&sim, &patterns, node, &divisors);
                        let want = oracle::harvest(&sim, &patterns, node, &divisors);
                        let context = format!(
                            "{} N={num_patterns} node={node:?} divisors={divisors:?}",
                            aig.name()
                        );
                        match (got, want) {
                            (Some(got), Some(want)) => {
                                assert_eq!(got.num_divisors(), k, "{context}");
                                assert_eq!(got.on_set(), want.on_set(), "{context}");
                                assert_eq!(got.care_set(), want.care_set(), "{context}");
                                feasible += 1;
                            }
                            (None, None) => infeasible += 1,
                            (got, want) => panic!(
                                "{context}: feasibility differs (word-parallel {}, oracle {})",
                                got.is_some(),
                                want.is_some()
                            ),
                        }
                    }
                }
            }
        }
        assert!(
            feasible > 100 && infeasible > 100,
            "{feasible} / {infeasible}"
        );
    }

    #[test]
    #[should_panic(expected = "harvest takes 1 to 6 divisors, got 7")]
    fn seven_divisors_are_rejected() {
        let aig = alsrac_circuits::arith::ripple_carry_adder(4);
        let patterns = PatternBuffer::random(aig.num_inputs(), 32, 1);
        let sim = Simulation::new(&aig, &patterns);
        let divisors: Vec<Lit> = aig.iter_nodes().skip(1).take(7).map(|n| n.lit()).collect();
        let node = aig.iter_ands().last().expect("an AND node").lit();
        ApproximateCareSet::harvest(&sim, &patterns, node, &divisors);
    }
}
