//! Bit-packed truth tables.

use std::fmt;

/// Maximum number of variables a [`Tt`] supports.
///
/// 16 variables = 65 536 minterns = 1024 words, comfortably covering the
/// divisor counts (≤ 10) and cut sizes (≤ 8) used anywhere in this
/// workspace.
pub const MAX_VARS: usize = 16;

/// Per-variable "value is 1" masks for variables living inside one word.
const WORD_MASKS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// A truth table over `nvars` variables, one bit per input pattern.
///
/// Pattern `p`'s output is bit `p % 64` of word `p / 64`; bit `i` of `p`
/// is the value of variable `i`. For fewer than 6 variables only the low
/// `2^nvars` bits of the single word are used and the rest are kept zero.
///
/// ```
/// use alsrac_truthtable::Tt;
///
/// let a = Tt::var(0, 2);
/// let b = Tt::var(1, 2);
/// let f = a.xor(&b);
/// assert_eq!(f.to_bits(), 0b0110);
/// assert_eq!(f.count_ones(), 2);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Tt {
    nvars: u8,
    words: Vec<u64>,
}

impl Tt {
    /// Number of words in a table of `nvars` variables.
    pub(crate) fn words_for(nvars: usize) -> usize {
        assert!(nvars <= MAX_VARS, "at most {MAX_VARS} variables supported");
        if nvars <= 6 {
            1
        } else {
            1 << (nvars - 6)
        }
    }

    /// Mask of the bits of the last word that are meaningful.
    pub(crate) fn tail_mask(nvars: usize) -> u64 {
        if nvars >= 6 {
            u64::MAX
        } else {
            (1u64 << (1 << nvars)) - 1
        }
    }

    /// The constant-0 function of `nvars` variables.
    ///
    /// # Panics
    ///
    /// Panics if `nvars > MAX_VARS` (same for all constructors).
    pub fn zero(nvars: usize) -> Tt {
        Tt {
            nvars: nvars as u8,
            words: vec![0; Tt::words_for(nvars)],
        }
    }

    /// The constant-1 function of `nvars` variables.
    pub fn ones(nvars: usize) -> Tt {
        Tt::from_words(nvars, vec![u64::MAX; Tt::words_for(nvars)])
    }

    /// The projection function of variable `var` among `nvars` variables.
    ///
    /// # Panics
    ///
    /// Panics if `var >= nvars`.
    pub fn var(var: usize, nvars: usize) -> Tt {
        assert!(var < nvars, "variable {var} out of range for {nvars} vars");
        Tt::from_words(
            nvars,
            (0..Tt::words_for(nvars)).map(|j| Tt::var_word(var, j)),
        )
    }

    /// Word `j` of the projection table of variable `var`.
    pub(crate) fn var_word(var: usize, j: usize) -> u64 {
        match WORD_MASKS.get(var) {
            Some(&mask) => mask,
            None => 0u64.wrapping_sub((j >> (var - 6) & 1) as u64),
        }
    }

    /// Builds a table over ≤ 6 variables from the low `2^nvars` bits of
    /// `bits`.
    ///
    /// # Panics
    ///
    /// Panics if `nvars > 6`.
    pub fn from_bits(nvars: usize, bits: u64) -> Tt {
        assert!(nvars <= 6, "from_bits supports at most 6 variables");
        Tt::from_words(nvars, [bits])
    }

    /// A table from its words, clearing the bits past the last pattern.
    pub(crate) fn from_words(nvars: usize, words: impl IntoIterator<Item = u64>) -> Tt {
        let mut t = Tt {
            nvars: nvars as u8,
            words: words.into_iter().collect(),
        };
        debug_assert_eq!(t.words.len(), Tt::words_for(nvars));
        *t.words.last_mut().expect("at least one word") &= Tt::tail_mask(nvars);
        t
    }

    /// Builds a table by evaluating `f` on every pattern index.
    pub fn from_fn(nvars: usize, mut f: impl FnMut(usize) -> bool) -> Tt {
        let mut t = Tt::zero(nvars);
        for p in 0..t.num_patterns() {
            if f(p) {
                t.set(p, true);
            }
        }
        t
    }

    /// Number of variables.
    pub fn nvars(&self) -> usize {
        self.nvars as usize
    }

    /// Number of input patterns (`2^nvars`).
    pub fn num_patterns(&self) -> usize {
        1usize << self.nvars
    }

    /// The raw bits for a table of ≤ 6 variables.
    ///
    /// # Panics
    ///
    /// Panics if the table has more than 6 variables.
    pub fn to_bits(&self) -> u64 {
        assert!(self.nvars <= 6, "to_bits supports at most 6 variables");
        self.words[0]
    }

    /// Returns the backing words.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Returns the output for input pattern `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p >= 2^nvars`.
    pub fn get(&self, p: usize) -> bool {
        assert!(p < self.num_patterns(), "pattern {p} out of range");
        self.words[p / 64] >> (p % 64) & 1 != 0
    }

    /// Sets the output for input pattern `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p >= 2^nvars`.
    pub fn set(&mut self, p: usize, value: bool) {
        assert!(p < self.num_patterns(), "pattern {p} out of range");
        if value {
            self.words[p / 64] |= 1 << (p % 64);
        } else {
            self.words[p / 64] &= !(1 << (p % 64));
        }
    }

    fn binary(&self, other: &Tt, f: impl Fn(u64, u64) -> u64) -> Tt {
        assert_eq!(self.nvars, other.nvars, "variable count mismatch");
        Tt {
            nvars: self.nvars,
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Bitwise AND.
    ///
    /// # Panics
    ///
    /// Panics if the variable counts differ (same for `or`/`xor`).
    pub fn and(&self, other: &Tt) -> Tt {
        self.binary(other, |a, b| a & b)
    }

    /// Bitwise OR.
    pub fn or(&self, other: &Tt) -> Tt {
        self.binary(other, |a, b| a | b)
    }

    /// Bitwise XOR.
    pub fn xor(&self, other: &Tt) -> Tt {
        self.binary(other, |a, b| a ^ b)
    }

    /// Bitwise complement.
    pub fn not(&self) -> Tt {
        Tt::from_words(self.nvars(), self.words.iter().map(|&w| !w))
    }

    /// Returns `true` if the function is constant 0.
    pub fn is_const0(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Returns `true` if the function is constant 1.
    pub fn is_const1(&self) -> bool {
        self.eq(&Tt::ones(self.nvars()))
    }

    /// Number of on-set minterms.
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Positive cofactor: the function with `var` fixed to `value`,
    /// replicated over both halves so the result has the same `nvars`.
    ///
    /// # Panics
    ///
    /// Panics if `var >= nvars`.
    pub fn cofactor(&self, var: usize, value: bool) -> Tt {
        assert!(var < self.nvars(), "variable {var} out of range");
        let mut t = self.clone();
        if var < 6 {
            let shift = 1u32 << var;
            let mask = WORD_MASKS[var];
            for w in &mut t.words {
                if value {
                    let hi = *w & mask;
                    *w = hi | hi >> shift;
                } else {
                    let lo = *w & !mask;
                    *w = lo | lo << shift;
                }
            }
        } else {
            let block = 1usize << (var - 6);
            let n = t.words.len();
            let mut i = 0;
            while i < n {
                for j in 0..block {
                    let (lo, hi) = (i + j, i + j + block);
                    let src = if value { hi } else { lo };
                    let v = t.words[src];
                    t.words[lo] = v;
                    t.words[hi] = v;
                }
                i += 2 * block;
            }
        }
        *t.words.last_mut().expect("at least one word") &= Tt::tail_mask(self.nvars());
        t
    }

    /// Returns `true` if the function depends on variable `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var >= nvars`.
    pub fn depends_on(&self, var: usize) -> bool {
        self.cofactor(var, false) != self.cofactor(var, true)
    }

    /// Returns the set of variables the function depends on.
    pub fn support(&self) -> Vec<usize> {
        (0..self.nvars()).filter(|&v| self.depends_on(v)).collect()
    }
}

impl fmt::Debug for Tt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tt({}v:", self.nvars)?;
        for p in (0..self.num_patterns()).rev() {
            if p % 8 == 7 && p + 1 != self.num_patterns() {
                write!(f, "_")?;
            }
            write!(f, "{}", self.get(p) as u8)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants() {
        for n in 0..=8 {
            let z = Tt::zero(n);
            let o = Tt::ones(n);
            assert!(z.is_const0());
            assert!(o.is_const1());
            assert!(!z.is_const1() || n == usize::MAX);
            assert_eq!(z.count_ones(), 0);
            assert_eq!(o.count_ones(), 1 << n);
            assert_eq!(z.not(), o);
            assert_eq!(o.not(), z);
        }
    }

    #[test]
    fn zero_vars_is_a_single_bit() {
        let z = Tt::zero(0);
        let o = Tt::ones(0);
        assert_eq!(z.num_patterns(), 1);
        assert!(!z.get(0));
        assert!(o.get(0));
    }

    #[test]
    fn var_projection_small() {
        for n in 1..=6 {
            for v in 0..n {
                let t = Tt::var(v, n);
                for p in 0..t.num_patterns() {
                    assert_eq!(t.get(p), p >> v & 1 != 0, "n={n} v={v} p={p}");
                }
            }
        }
    }

    #[test]
    fn var_projection_large() {
        for n in [7, 8, 9] {
            for v in 0..n {
                let t = Tt::var(v, n);
                for p in (0..t.num_patterns()).step_by(13) {
                    assert_eq!(t.get(p), p >> v & 1 != 0, "n={n} v={v} p={p}");
                }
            }
        }
    }

    #[test]
    fn from_fn_round_trip() {
        let t = Tt::from_fn(7, |p| p % 3 == 0);
        for p in 0..128 {
            assert_eq!(t.get(p), p % 3 == 0);
        }
    }

    #[test]
    fn boolean_ops_match_bitwise_semantics() {
        let a = Tt::var(0, 3);
        let b = Tt::var(1, 3);
        let c = Tt::var(2, 3);
        let f = a.and(&b).or(&c.not());
        for p in 0..8 {
            let (av, bv, cv) = (p & 1 != 0, p & 2 != 0, p & 4 != 0);
            assert_eq!(f.get(p), av && bv || !cv);
        }
    }

    #[test]
    fn not_keeps_tail_bits_clear() {
        let t = Tt::zero(2).not();
        assert_eq!(t.to_bits(), 0b1111);
        assert!(t.is_const1());
    }

    #[test]
    fn cofactor_small_vars() {
        // f = a & b | !a & c  (mux on a), 3 vars.
        let a = Tt::var(0, 3);
        let b = Tt::var(1, 3);
        let c = Tt::var(2, 3);
        let f = a.and(&b).or(&a.not().and(&c));
        assert_eq!(f.cofactor(0, true), b);
        assert_eq!(f.cofactor(0, false), c);
    }

    #[test]
    fn cofactor_large_vars() {
        // 8 vars; f = var6 ? var0 : var7.
        let v0 = Tt::var(0, 8);
        let v6 = Tt::var(6, 8);
        let v7 = Tt::var(7, 8);
        let f = v6.and(&v0).or(&v6.not().and(&v7));
        assert_eq!(f.cofactor(6, true), v0);
        assert_eq!(f.cofactor(6, false), v7);
    }

    #[test]
    fn cofactor_is_independent_of_var() {
        let a = Tt::var(0, 4);
        let b = Tt::var(3, 4);
        let f = a.xor(&b);
        let c0 = f.cofactor(3, false);
        assert!(!c0.depends_on(3));
        assert!(c0.depends_on(0));
    }

    #[test]
    fn support_detection() {
        let a = Tt::var(0, 5);
        let d = Tt::var(3, 5);
        let f = a.or(&d);
        assert_eq!(f.support(), vec![0, 3]);
        assert!(Tt::ones(5).support().is_empty());
    }

    #[test]
    fn get_set_round_trip() {
        let mut t = Tt::zero(9);
        t.set(100, true);
        t.set(511, true);
        assert!(t.get(100));
        assert!(t.get(511));
        assert!(!t.get(99));
        t.set(100, false);
        assert!(!t.get(100));
        assert_eq!(t.count_ones(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_validates_pattern() {
        Tt::zero(3).get(8);
    }

    #[test]
    #[should_panic(expected = "variable count mismatch")]
    fn binary_op_validates_arity() {
        let _ = Tt::zero(3).and(&Tt::zero(4));
    }

    #[test]
    fn debug_is_readable() {
        let t = Tt::from_bits(2, 0b0110);
        assert_eq!(format!("{t:?}"), "Tt(2v:0110)");
    }
}
