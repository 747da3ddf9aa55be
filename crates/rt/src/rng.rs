//! Deterministic PRNG: xoshiro256\*\* with SplitMix64 seeding, plus named
//! sub-stream derivation.
//!
//! xoshiro256\*\* (Blackman & Vigna) is a 256-bit-state generator with
//! excellent statistical quality and a one-multiply-per-word hot path —
//! more than enough for Monte-Carlo pattern generation, and fully
//! reproducible across platforms (no floating point, no OS entropy).
//! SplitMix64 expands a single `u64` seed into the four state words, which
//! both avoids the all-zero fixed point and decorrelates nearby seeds.

use std::ops::Range;

/// The SplitMix64 additive constant (the golden-ratio increment).
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// One step of the SplitMix64 generator: advances `state` and returns the
/// next output word.
///
/// Exposed because seed derivation and the known-answer tests use it
/// directly; most callers want [`Rng::from_seed`] instead.
#[inline]
pub fn split_mix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GOLDEN_GAMMA);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Named random-decision streams of a seeded flow.
///
/// Every stochastic phase of a flow draws from its own sub-stream derived
/// from the single root seed via [`derive_seed`] / [`derive_indexed`],
/// so phases cannot alias each other's pattern sequences and adding a
/// draw to one phase never perturbs another.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stream {
    /// Per-iteration care-set simulation patterns.
    Care,
    /// Candidate batch-error-estimation patterns.
    Estimation,
    /// Final accuracy-measurement patterns.
    Measurement,
    /// Stochastic proposal decisions (Metropolis acceptance etc.).
    Proposal,
    /// Circuit/workload generation.
    Generation,
    /// XOR-hash constraints for approximate model counting.
    Hashing,
    /// Deterministic fault-injection points (robustness test harness).
    Faults,
}

impl Stream {
    fn id(self) -> u64 {
        match self {
            Stream::Care => 1,
            Stream::Estimation => 2,
            Stream::Measurement => 3,
            Stream::Proposal => 4,
            Stream::Generation => 5,
            Stream::Hashing => 6,
            Stream::Faults => 7,
        }
    }
}

/// Derives the seed of a named sub-stream from a root seed.
///
/// Equivalent to [`derive_indexed`] with index 0.
#[inline]
pub fn derive_seed(root: u64, stream: Stream) -> u64 {
    derive_indexed(root, stream, 0)
}

/// Derives the seed of the `index`-th draw of a named sub-stream.
///
/// Used when a phase draws a fresh pattern buffer every iteration (the
/// flow's care simulation): `derive_indexed(root, Stream::Care, i)` gives
/// iteration `i` its own decorrelated seed. Distinct `(stream, index)`
/// pairs map to distinct, SplitMix64-mixed seeds.
#[inline]
pub fn derive_indexed(root: u64, stream: Stream, index: u64) -> u64 {
    // Two chained SplitMix64 steps keyed by stream then index: the output
    // is a full-avalanche mix of (root, stream, index).
    let mut state = root ^ stream.id().wrapping_mul(GOLDEN_GAMMA);
    let keyed = split_mix64(&mut state);
    let mut state = keyed ^ index;
    split_mix64(&mut state)
}

/// A seedable, deterministic pseudo-random number generator.
///
/// The same seed always produces the same sequence, on every platform.
/// Cloning captures the current position; the clone and the original then
/// produce identical continuations.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator from a 64-bit seed (SplitMix64 state expansion).
    pub fn from_seed(seed: u64) -> Rng {
        let mut state = seed;
        let s = [
            split_mix64(&mut state),
            split_mix64(&mut state),
            split_mix64(&mut state),
            split_mix64(&mut state),
        ];
        Rng { s }
    }

    /// Creates the generator for a named sub-stream of `root`.
    ///
    /// Shorthand for `Rng::from_seed(derive_seed(root, stream))`.
    pub fn for_stream(root: u64, stream: Stream) -> Rng {
        Rng::from_seed(derive_seed(root, stream))
    }

    /// Returns the next 64-bit output word (xoshiro256\*\* step).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns `true` with probability `p`.
    ///
    /// Compares a 53-bit uniform draw in `[0, 1)` against `p`, so
    /// `gen_bool(0.0)` is always `false` and `gen_bool(1.0)` always `true`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!(
            (0.0..=1.0).contains(&p),
            "gen_bool probability out of range: {p}"
        );
        let unit = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        unit < p
    }

    /// Returns a uniform value in `range` (exact, via Lemire rejection).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    pub fn gen_range(&mut self, range: Range<usize>) -> usize {
        assert!(
            range.start < range.end,
            "gen_range on empty range {}..{}",
            range.start,
            range.end
        );
        let span = (range.end - range.start) as u64;
        let mut m = u128::from(self.next_u64()) * u128::from(span);
        if (m as u64) < span {
            // Reject the partial final block so every value is exactly
            // uniform (Lemire's nearly-divisionless method).
            let threshold = span.wrapping_neg() % span;
            while (m as u64) < threshold {
                m = u128::from(self.next_u64()) * u128::from(span);
            }
        }
        range.start + (m >> 64) as usize
    }

    /// Splits off an independent child generator.
    ///
    /// The child is seeded from the parent's stream (advancing the parent
    /// by one word), so repeated splits yield decorrelated generators
    /// while the whole tree stays a pure function of the root seed.
    pub fn split(&mut self) -> Rng {
        Rng::from_seed(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64 known-answer vectors (reference C implementation;
    /// cross-checked against an independent Python implementation).
    #[test]
    fn splitmix64_known_answers() {
        let mut s = 0u64;
        let got: Vec<u64> = (0..4).map(|_| split_mix64(&mut s)).collect();
        assert_eq!(
            got,
            [
                0xE220_A839_7B1D_CDAF,
                0x6E78_9E6A_A1B9_65F4,
                0x06C4_5D18_8009_454F,
                0xF88B_B8A8_724C_81EC,
            ]
        );

        let mut s = 0x0123_4567_89AB_CDEFu64;
        let got: Vec<u64> = (0..4).map(|_| split_mix64(&mut s)).collect();
        assert_eq!(
            got,
            [
                0x157A_3807_A48F_AA9D,
                0xD573_529B_34A1_D093,
                0x2F90_B72E_996D_CCBE,
                0xA2D4_1933_4C46_67EC,
            ]
        );
    }

    /// xoshiro256** known-answer vectors for SplitMix64-expanded seeds
    /// (matches the `rand_xoshiro` crate's `seed_from_u64` convention;
    /// cross-checked against an independent Python implementation).
    #[test]
    fn xoshiro_known_answers() {
        let mut rng = Rng::from_seed(0);
        let got: Vec<u64> = (0..6).map(|_| rng.next_u64()).collect();
        assert_eq!(
            got,
            [
                0x99EC_5F36_CB75_F2B4,
                0xBF6E_1F78_4956_452A,
                0x1A5F_849D_4933_E6E0,
                0x6AA5_94F1_262D_2D2C,
                0xBBA5_AD4A_1F84_2E59,
                0xFFEF_8375_D9EB_CACA,
            ]
        );

        let mut rng = Rng::from_seed(42);
        let got: Vec<u64> = (0..6).map(|_| rng.next_u64()).collect();
        assert_eq!(
            got,
            [
                0x1578_0B2E_0C2E_C716,
                0x6104_D986_6D11_3A7E,
                0xAE17_5332_39E4_99A1,
                0xECB8_AD47_03B3_60A1,
                0xFDE6_DC7F_E2EC_5E64,
                0xC50D_A531_0179_5238,
            ]
        );
    }

    #[test]
    fn same_seed_same_sequence() {
        let mut a = Rng::from_seed(7);
        let mut b = Rng::from_seed(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn gen_bool_empirical_frequency() {
        for &p in &[0.1, 0.25, 0.5, 0.9] {
            let mut rng = Rng::from_seed(0xF00D);
            let n = 20_000;
            let hits = (0..n).filter(|_| rng.gen_bool(p)).count();
            let freq = hits as f64 / f64::from(n);
            assert!((freq - p).abs() < 0.02, "p={p}: empirical frequency {freq}");
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = Rng::from_seed(1);
        assert!((0..1000).all(|_| !rng.gen_bool(0.0)));
        assert!((0..1000).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn gen_range_bounds_and_coverage() {
        let mut rng = Rng::from_seed(3);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.gen_range(2..12);
            assert!((2..12).contains(&v));
            seen[v - 2] = true;
        }
        assert!(seen.iter().all(|&s| s), "not all values drawn: {seen:?}");
    }

    #[test]
    fn gen_range_is_roughly_uniform() {
        let mut rng = Rng::from_seed(11);
        let mut counts = [0u32; 8];
        let n = 80_000;
        for _ in 0..n {
            counts[rng.gen_range(0..8)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let freq = f64::from(c) / f64::from(n);
            assert!((freq - 0.125).abs() < 0.01, "bucket {i}: {freq}");
        }
    }

    #[test]
    fn substreams_are_independent() {
        // Distinct streams (and distinct indices within a stream) yield
        // distinct seeds and uncorrelated sequences.
        let root = 42;
        let seeds = [
            derive_seed(root, Stream::Care),
            derive_seed(root, Stream::Estimation),
            derive_seed(root, Stream::Measurement),
            derive_seed(root, Stream::Proposal),
            derive_indexed(root, Stream::Care, 1),
            derive_indexed(root, Stream::Care, 2),
            root,
        ];
        for i in 0..seeds.len() {
            for j in i + 1..seeds.len() {
                assert_ne!(seeds[i], seeds[j], "seed collision {i}/{j}");
            }
        }
        // Correlation check: matching words of two sub-streams agree no
        // more often than unrelated fair coins would.
        let mut a = Rng::for_stream(root, Stream::Care);
        let mut b = Rng::for_stream(root, Stream::Estimation);
        let mut matching_bits = 0u32;
        let total = 64 * 256;
        for _ in 0..256 {
            matching_bits += (a.next_u64() ^ b.next_u64()).count_zeros();
        }
        let frac = f64::from(matching_bits) / f64::from(total);
        assert!((frac - 0.5).abs() < 0.03, "bit agreement {frac}");
    }

    #[test]
    fn derive_is_stable() {
        // The derivation function is part of the reproducibility contract:
        // changing it silently would change every seeded flow trace.
        assert_eq!(derive_seed(1, Stream::Care), derive_seed(1, Stream::Care));
        assert_eq!(
            derive_indexed(1, Stream::Care, 5),
            derive_indexed(1, Stream::Care, 5)
        );
        assert_ne!(derive_seed(1, Stream::Care), derive_seed(2, Stream::Care));
    }

    #[test]
    fn split_decorrelates() {
        let mut parent = Rng::from_seed(5);
        let mut c1 = parent.split();
        let mut c2 = parent.split();
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn gen_range_rejects_empty() {
        Rng::from_seed(0).gen_range(3..3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn gen_bool_rejects_bad_probability() {
        Rng::from_seed(0).gen_bool(1.5);
    }
}
