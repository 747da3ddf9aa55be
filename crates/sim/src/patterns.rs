//! Packed input-pattern buffers.

use alsrac_rt::Rng;

/// A buffer of input patterns, bit-packed 64 per word.
///
/// Word `w` of input `i` holds the value of input `i` under patterns
/// `64*w .. 64*w+63` (pattern `p` in bit `p % 64`). A buffer may hold a
/// pattern count that is not a multiple of 64; [`PatternBuffer::word_mask`]
/// masks the valid lanes of each word, and generators always leave the
/// invalid lanes zero.
#[derive(Clone, Debug)]
pub struct PatternBuffer {
    num_inputs: usize,
    num_patterns: usize,
    num_words: usize,
    /// Flat `inputs × words` arena, `words[input * num_words + w]` — one
    /// allocation, so per-input rows are contiguous and consecutive inputs
    /// stream through cache during the simulation sweep.
    words: Vec<u64>,
}

impl PatternBuffer {
    /// Draws `num_patterns` uniformly random patterns from a seeded RNG.
    ///
    /// The same `(num_inputs, num_patterns, seed)` triple always produces
    /// the same buffer, making every flow in this workspace reproducible.
    /// (RNG words are drawn input-major, word-minor — the arena's layout
    /// order — which is the draw order the pre-SoA nested layout used, so
    /// seeds reproduce historical buffers bit-for-bit.)
    pub fn random(num_inputs: usize, num_patterns: usize, seed: u64) -> PatternBuffer {
        let mut rng = Rng::from_seed(seed);
        let num_words = num_patterns.div_ceil(64).max(1);
        let tail = Self::tail_mask_for(num_patterns);
        let mut words = Vec::with_capacity(num_inputs * num_words);
        for _ in 0..num_inputs {
            for w in 0..num_words {
                let bits = rng.next_u64();
                words.push(if w + 1 == num_words {
                    bits & tail
                } else {
                    bits
                });
            }
        }
        PatternBuffer {
            num_inputs,
            num_patterns,
            num_words,
            words,
        }
    }

    /// Draws patterns where input `i` is 1 with probability `bias[i]`.
    ///
    /// The paper's experiments use uniform inputs, but the method is defined
    /// for "random input patterns following a user-specified distribution"
    /// (§III-A); this constructor provides that generality.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != num_inputs` or any probability is outside
    /// `[0, 1]`.
    pub fn biased(
        num_inputs: usize,
        num_patterns: usize,
        bias: &[f64],
        seed: u64,
    ) -> PatternBuffer {
        assert_eq!(bias.len(), num_inputs, "one bias per input required");
        assert!(
            bias.iter().all(|p| (0.0..=1.0).contains(p)),
            "biases must be probabilities"
        );
        let mut rng = Rng::from_seed(seed);
        let num_words = num_patterns.div_ceil(64).max(1);
        let mut words = vec![0u64; num_inputs * num_words];
        for (i, &p) in bias.iter().enumerate() {
            let row = &mut words[i * num_words..(i + 1) * num_words];
            for pattern in 0..num_patterns {
                if rng.gen_bool(p) {
                    row[pattern / 64] |= 1 << (pattern % 64);
                }
            }
        }
        PatternBuffer {
            num_inputs,
            num_patterns,
            num_words,
            words,
        }
    }

    /// Enumerates all `2^num_inputs` patterns (pattern index = input value,
    /// LSB-first).
    ///
    /// # Panics
    ///
    /// Panics if `num_inputs > 24` (the buffer would exceed 16M patterns).
    pub fn exhaustive(num_inputs: usize) -> PatternBuffer {
        assert!(num_inputs <= 24, "exhaustive patterns limited to 24 inputs");
        let num_patterns = 1usize << num_inputs;
        let num_words = num_patterns.div_ceil(64).max(1);
        // Repeating sub-word patterns for the six lowest variables.
        const MASKS: [u64; 6] = [
            0xAAAA_AAAA_AAAA_AAAA,
            0xCCCC_CCCC_CCCC_CCCC,
            0xF0F0_F0F0_F0F0_F0F0,
            0xFF00_FF00_FF00_FF00,
            0xFFFF_0000_FFFF_0000,
            0xFFFF_FFFF_0000_0000,
        ];
        let mut words = Vec::with_capacity(num_inputs * num_words);
        for i in 0..num_inputs {
            let low_mask = MASKS.get(i).map(|m| m & Self::tail_mask_for(num_patterns));
            for w in 0..num_words {
                words.push(if let Some(mask) = low_mask {
                    mask
                } else if w >> (i - 6) & 1 == 1 {
                    u64::MAX
                } else {
                    0
                });
            }
        }
        PatternBuffer {
            num_inputs,
            num_patterns,
            num_words,
            words,
        }
    }

    /// Builds a buffer from explicit per-pattern input assignments.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(num_inputs: usize, rows: &[Vec<bool>]) -> PatternBuffer {
        let num_patterns = rows.len();
        let num_words = num_patterns.div_ceil(64).max(1);
        let mut words = vec![0u64; num_inputs * num_words];
        for (p, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), num_inputs, "row {p} has wrong arity");
            for (i, &bit) in row.iter().enumerate() {
                if bit {
                    words[i * num_words + p / 64] |= 1 << (p % 64);
                }
            }
        }
        PatternBuffer {
            num_inputs,
            num_patterns,
            num_words,
            words,
        }
    }

    /// Number of inputs per pattern.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of patterns in the buffer.
    pub fn num_patterns(&self) -> usize {
        self.num_patterns
    }

    /// Number of 64-bit words per input.
    pub fn num_words(&self) -> usize {
        self.num_words
    }

    /// The packed words of input `i`.
    #[inline]
    pub fn input_words(&self, i: usize) -> &[u64] {
        &self.words[i * self.num_words..(i + 1) * self.num_words]
    }

    /// Returns the value of input `i` under pattern `p`.
    pub fn get(&self, i: usize, p: usize) -> bool {
        self.words[i * self.num_words + p / 64] >> (p % 64) & 1 != 0
    }

    fn tail_mask_for(num_patterns: usize) -> u64 {
        match num_patterns % 64 {
            0 if num_patterns > 0 => u64::MAX,
            0 => 0,
            r => (1u64 << r) - 1,
        }
    }

    /// Mask of the valid lanes of word `w` (all lanes except possibly in the
    /// final word).
    pub fn word_mask(&self, w: usize) -> u64 {
        if w + 1 < self.num_words() {
            u64::MAX
        } else {
            Self::tail_mask_for(self.num_patterns)
        }
    }

    /// The valid-lane masks of every word, in word order.
    ///
    /// Convenience for the measurement and estimation kernels, which fold
    /// packed comparisons word by word (and, when parallelized, hand each
    /// worker the same read-only mask slice).
    pub fn word_masks(&self) -> Vec<u64> {
        (0..self.num_words()).map(|w| self.word_mask(w)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_is_reproducible() {
        let a = PatternBuffer::random(5, 100, 42);
        let b = PatternBuffer::random(5, 100, 42);
        let c = PatternBuffer::random(5, 100, 43);
        for i in 0..5 {
            assert_eq!(a.input_words(i), b.input_words(i));
        }
        assert!((0..5).any(|i| a.input_words(i) != c.input_words(i)));
    }

    #[test]
    fn word_masks_collects_every_word() {
        let buf = PatternBuffer::random(2, 70, 3);
        assert_eq!(buf.word_masks(), vec![u64::MAX, (1 << 6) - 1]);
    }

    #[test]
    fn random_masks_invalid_lanes() {
        let a = PatternBuffer::random(3, 10, 7);
        assert_eq!(a.num_words(), 1);
        for i in 0..3 {
            assert_eq!(a.input_words(i)[0] & !a.word_mask(0), 0);
        }
        assert_eq!(a.word_mask(0), (1 << 10) - 1);
    }

    #[test]
    fn exhaustive_covers_all_patterns() {
        let buf = PatternBuffer::exhaustive(3);
        assert_eq!(buf.num_patterns(), 8);
        let mut seen = std::collections::HashSet::new();
        for p in 0..8 {
            let key: Vec<bool> = (0..3).map(|i| buf.get(i, p)).collect();
            seen.insert(key.clone());
            // Pattern index encodes input values LSB-first.
            for (i, &bit) in key.iter().enumerate() {
                assert_eq!(bit, p >> i & 1 != 0);
            }
        }
        assert_eq!(seen.len(), 8);
    }

    #[test]
    fn exhaustive_large_inputs_use_word_blocks() {
        let buf = PatternBuffer::exhaustive(8);
        assert_eq!(buf.num_patterns(), 256);
        assert_eq!(buf.num_words(), 4);
        for p in (0..256).step_by(17) {
            for i in 0..8 {
                assert_eq!(buf.get(i, p), p >> i & 1 != 0, "i={i} p={p}");
            }
        }
    }

    #[test]
    fn biased_extremes() {
        let always = PatternBuffer::biased(2, 64, &[1.0, 0.0], 5);
        assert_eq!(always.input_words(0)[0], u64::MAX);
        assert_eq!(always.input_words(1)[0], 0);
    }

    #[test]
    fn biased_roughly_matches_probability() {
        let buf = PatternBuffer::biased(1, 6400, &[0.25], 9);
        let ones: u32 = buf.input_words(0).iter().map(|w| w.count_ones()).sum();
        let frac = f64::from(ones) / 6400.0;
        assert!((frac - 0.25).abs() < 0.05, "frac={frac}");
    }

    #[test]
    fn from_rows_round_trip() {
        let rows = vec![
            vec![true, false, true],
            vec![false, false, true],
            vec![true, true, false],
        ];
        let buf = PatternBuffer::from_rows(3, &rows);
        for (p, row) in rows.iter().enumerate() {
            for (i, &bit) in row.iter().enumerate() {
                assert_eq!(buf.get(i, p), bit);
            }
        }
    }

    #[test]
    fn zero_pattern_buffer_has_one_empty_word() {
        let buf = PatternBuffer::random(2, 0, 1);
        assert_eq!(buf.num_patterns(), 0);
        assert_eq!(buf.num_words(), 1);
        assert_eq!(buf.word_mask(0), 0);
    }

    #[test]
    #[should_panic(expected = "one bias per input")]
    fn biased_validates_arity() {
        PatternBuffer::biased(3, 8, &[0.5], 1);
    }
}
