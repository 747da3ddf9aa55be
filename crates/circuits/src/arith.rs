//! Arithmetic benchmark generators.
//!
//! Each function returns a complete [`Aig`] with named inputs and outputs.
//! The families mirror the arithmetic benchmarks of the ALSRAC paper
//! (Table III): `rca32`, `cla32`, `ksa32`, `mtp8`, `wal8`, `alu4`, and the
//! EPFL arithmetic set (`adder`, `shifter`, `divisor`, `log2`, `max`,
//! `mult`, `sine`, `sqrt`, `square`). Bit-widths are parameters so test
//! suites can use small instances and the experiment harness can use
//! paper-scale ones; the scale suite's `mtp48` is
//! [`array_multiplier`]`(48)` (see [`crate::catalog::scale_benchmarks`]).

use alsrac_aig::{Aig, Lit};

use crate::words;

/// `rca{n}`: ripple-carry adder, `2n` inputs, `n+1` outputs.
pub fn ripple_carry_adder(n: usize) -> Aig {
    let mut aig = Aig::new(format!("rca{n}"));
    let a = aig.add_inputs("a", n);
    let b = aig.add_inputs("b", n);
    let (sum, carry) = words::ripple_add(&mut aig, &a, &b, Lit::FALSE);
    for (i, &s) in sum.iter().enumerate() {
        aig.add_output(format!("s{i}"), s);
    }
    aig.add_output("cout", carry);
    aig
}

/// `cla{n}`: carry-lookahead adder, `2n` inputs, `n+1` outputs.
pub fn carry_lookahead_adder(n: usize) -> Aig {
    let mut aig = Aig::new(format!("cla{n}"));
    let a = aig.add_inputs("a", n);
    let b = aig.add_inputs("b", n);
    let (sum, carry) = words::carry_lookahead_add(&mut aig, &a, &b, Lit::FALSE);
    for (i, &s) in sum.iter().enumerate() {
        aig.add_output(format!("s{i}"), s);
    }
    aig.add_output("cout", carry);
    aig
}

/// `ksa{n}`: Kogge–Stone adder, `2n` inputs, `n+1` outputs.
pub fn kogge_stone_adder(n: usize) -> Aig {
    let mut aig = Aig::new(format!("ksa{n}"));
    let a = aig.add_inputs("a", n);
    let b = aig.add_inputs("b", n);
    let (sum, carry) = words::kogge_stone_add(&mut aig, &a, &b, Lit::FALSE);
    for (i, &s) in sum.iter().enumerate() {
        aig.add_output(format!("s{i}"), s);
    }
    aig.add_output("cout", carry);
    aig
}

/// `mtp{n}`: array multiplier, `2n` inputs, `2n` outputs.
pub fn array_multiplier(n: usize) -> Aig {
    let mut aig = Aig::new(format!("mtp{n}"));
    let a = aig.add_inputs("a", n);
    let b = aig.add_inputs("b", n);
    let product = words::array_multiply(&mut aig, &a, &b);
    for (i, &p) in product.iter().enumerate() {
        aig.add_output(format!("p{i}"), p);
    }
    aig
}

/// `wal{n}`: Wallace-tree multiplier, `2n` inputs, `2n` outputs.
pub fn wallace_multiplier(n: usize) -> Aig {
    let mut aig = Aig::new(format!("wal{n}"));
    let a = aig.add_inputs("a", n);
    let b = aig.add_inputs("b", n);
    let product = words::wallace_multiply(&mut aig, &a, &b);
    for (i, &p) in product.iter().enumerate() {
        aig.add_output(format!("p{i}"), p);
    }
    aig
}

/// ALU opcode truth: the 8 operations of [`alu`].
///
/// `op` = 0: `a + b`, 1: `a - b`, 2: `a & b`, 3: `a | b`, 4: `a ^ b`,
/// 5: `a < b` (zero-extended), 6: `~(a & b)`, 7: `b`.
pub fn alu_model(op: u64, a: u64, b: u64, n: usize) -> u64 {
    let mask = if n >= 64 { u64::MAX } else { (1 << n) - 1 };
    (match op {
        0 => a.wrapping_add(b),
        1 => a.wrapping_sub(b),
        2 => a & b,
        3 => a | b,
        4 => a ^ b,
        5 => u64::from(a < b),
        6 => !(a & b),
        7 => b,
        _ => unreachable!("3-bit opcode"),
    }) & mask
}

/// `alu{n}`: an `n`-bit 8-operation ALU (`2n + 3` inputs, `n` outputs).
///
/// This is the stand-in for the MCNC `alu4` benchmark: a mixed
/// arithmetic/logic function with control inputs selecting the operation.
pub fn alu(n: usize) -> Aig {
    let mut aig = Aig::new(format!("alu{n}"));
    let a = aig.add_inputs("a", n);
    let b = aig.add_inputs("b", n);
    let op = aig.add_inputs("op", 3);

    let (add, _) = words::ripple_add(&mut aig, &a, &b, Lit::FALSE);
    let (sub, borrow) = words::subtract(&mut aig, &a, &b);
    let and: Vec<Lit> = a.iter().zip(&b).map(|(&x, &y)| aig.and(x, y)).collect();
    let or: Vec<Lit> = a.iter().zip(&b).map(|(&x, &y)| aig.or(x, y)).collect();
    let xor: Vec<Lit> = a.iter().zip(&b).map(|(&x, &y)| aig.xor(x, y)).collect();
    let mut slt = vec![Lit::FALSE; n];
    slt[0] = borrow;
    let nand: Vec<Lit> = and.iter().map(|&l| !l).collect();
    let pass_b = b.clone();

    let choices = [add, sub, and, or, xor, slt, nand, pass_b];
    let mut result = vec![Lit::FALSE; n];
    for bit in 0..n {
        // 8:1 mux per output bit.
        let mut layer: Vec<Lit> = choices.iter().map(|w| w[bit]).collect();
        for &sel in &op {
            let mut next = Vec::with_capacity(layer.len() / 2);
            for pair in layer.chunks(2) {
                next.push(aig.mux(sel, pair[1], pair[0]));
            }
            layer = next;
        }
        result[bit] = layer[0];
    }
    for (i, &r) in result.iter().enumerate() {
        aig.add_output(format!("y{i}"), r);
    }
    aig
}

/// `max{k}x{n}`: maximum of `k` unsigned `n`-bit words (`k*n` inputs,
/// `n` outputs) — the EPFL `max` analogue.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn max_of(k: usize, n: usize) -> Aig {
    assert!(k > 0, "max of zero words is undefined");
    let mut aig = Aig::new(format!("max{k}x{n}"));
    let operands: Vec<Vec<Lit>> = (0..k)
        .map(|i| aig.add_inputs(&format!("x{i}_"), n))
        .collect();
    let mut best = operands[0].clone();
    for word in &operands[1..] {
        let lt = words::less_than(&mut aig, &best, word);
        best = words::mux_word(&mut aig, lt, word, &best);
    }
    for (i, &m) in best.iter().enumerate() {
        aig.add_output(format!("m{i}"), m);
    }
    aig
}

/// `shifter{n}`: logical right barrel shifter (`n + log2(n)` inputs,
/// `n` outputs) — the EPFL `shifter` analogue.
///
/// # Panics
///
/// Panics if `n` is not a power of two.
pub fn barrel_shifter(n: usize) -> Aig {
    assert!(n.is_power_of_two(), "shifter width must be a power of two");
    let sh_bits = n.trailing_zeros() as usize;
    let mut aig = Aig::new(format!("shifter{n}"));
    let v = aig.add_inputs("v", n);
    let s = aig.add_inputs("s", sh_bits);
    let out = words::barrel_shift_right(&mut aig, &v, &s);
    for (i, &o) in out.iter().enumerate() {
        aig.add_output(format!("y{i}"), o);
    }
    aig
}

/// `square{n}`: squarer (`n` inputs, `2n` outputs) — the EPFL `square`
/// analogue.
pub fn square(n: usize) -> Aig {
    let mut aig = Aig::new(format!("square{n}"));
    let a = aig.add_inputs("a", n);
    let product = words::wallace_multiply(&mut aig, &a.clone(), &a);
    for (i, &p) in product.iter().enumerate() {
        aig.add_output(format!("p{i}"), p);
    }
    aig
}

/// `sqrt{n}`: restoring integer square root (`n` inputs, `n/2` outputs) —
/// the EPFL `sqrt` analogue.
///
/// # Panics
///
/// Panics if `n` is odd or zero.
pub fn sqrt(n: usize) -> Aig {
    assert!(
        n > 0 && n.is_multiple_of(2),
        "sqrt width must be even and positive"
    );
    let half = n / 2;
    let w = half + 3; // remainder working width
    let mut aig = Aig::new(format!("sqrt{n}"));
    let a = aig.add_inputs("a", n);

    let mut rem: Vec<Lit> = vec![Lit::FALSE; w];
    let mut root: Vec<Lit> = Vec::new(); // MSB-first accumulation
    for step in 0..half {
        // Bring down bits 2i+1, 2i (i counts from the top).
        let i = half - 1 - step;
        let mut shifted = vec![a[2 * i], a[2 * i + 1]];
        shifted.extend(rem.iter().take(w - 2).copied());
        // Trial subtrahend: (root << 2) | 01, zero-extended to w.
        let mut trial = vec![Lit::TRUE, Lit::FALSE];
        trial.extend(root.iter().rev().copied()); // root is MSB-first
        trial.resize(w, Lit::FALSE);
        let (diff, borrow) = words::subtract(&mut aig, &shifted, &trial);
        let accept = !borrow;
        rem = words::mux_word(&mut aig, accept, &diff, &shifted);
        root.push(accept);
    }
    // root is MSB-first; outputs are LSB-first.
    for (i, &bit) in root.iter().rev().enumerate() {
        aig.add_output(format!("q{i}"), bit);
    }
    aig
}

/// `div{n}`: restoring unsigned divider computing `a / b` and `a % b`
/// (`2n` inputs, `2n` outputs; division by zero yields all-ones quotient) —
/// the EPFL `divisor` analogue.
pub fn divider(n: usize) -> Aig {
    let w = n + 1;
    let mut aig = Aig::new(format!("div{n}"));
    let a = aig.add_inputs("a", n);
    let b = aig.add_inputs("b", n);
    let mut b_ext = b.clone();
    b_ext.resize(w, Lit::FALSE);

    let mut rem: Vec<Lit> = vec![Lit::FALSE; w];
    let mut quotient_msb_first = Vec::with_capacity(n);
    for step in 0..n {
        let i = n - 1 - step;
        let mut shifted = vec![a[i]];
        shifted.extend(rem.iter().take(w - 1).copied());
        let (diff, borrow) = words::subtract(&mut aig, &shifted, &b_ext);
        let accept = !borrow;
        rem = words::mux_word(&mut aig, accept, &diff, &shifted);
        quotient_msb_first.push(accept);
    }
    for (i, &q) in quotient_msb_first.iter().rev().enumerate() {
        aig.add_output(format!("q{i}"), q);
    }
    for (i, &r) in rem.iter().take(n).enumerate() {
        aig.add_output(format!("r{i}"), r);
    }
    aig
}

/// `sine{n}`: fixed-point sine approximation (`n` inputs, `n` outputs) —
/// the EPFL `sine` analogue.
///
/// Computes `sin(pi * x) ~= 4 x (1 - x)` on an `n`-bit fraction
/// `x in [0, 1)`; the output is the top `n` bits of the parabola. The exact
/// bit-level model is [`sine_model`].
pub fn sine(n: usize) -> Aig {
    let mut aig = Aig::new(format!("sine{n}"));
    let x = aig.add_inputs("x", n);
    // one_minus_x = !x (i.e. (2^n - 1) - x, the reflection; off by one ulp
    // from 2^n - x, fine for a benchmark function).
    let reflected: Vec<Lit> = x.iter().map(|&l| !l).collect();
    let product = words::wallace_multiply(&mut aig, &x, &reflected); // 2n bits
                                                                     // 4 * product / 2^n scaled back to n bits: take bits [n-2 .. 2n-2).
    for i in 0..n {
        let bit = product.get(n - 2 + i).copied().unwrap_or(Lit::FALSE);
        aig.add_output(format!("y{i}"), bit);
    }
    aig
}

/// Bit-exact software model of [`sine`].
pub fn sine_model(x: u64, n: usize) -> u64 {
    let reflected = !x & ((1 << n) - 1);
    let product = x * reflected; // 2n bits
    let mask = (1u64 << n) - 1;
    product >> (n - 2) & mask
}

/// `log2_{n}`: integer/fraction binary logarithm (`n` inputs,
/// `ceil(log2(n)) + frac` outputs) — the EPFL `log2` analogue.
///
/// Outputs the exponent (position of the leading one) and `frac` bits of
/// the normalized mantissa below the leading one (linear-interpolation
/// fraction). Input zero yields all-zero outputs. The bit-exact model is
/// [`log2_model`].
pub fn log2(n: usize, frac: usize) -> Aig {
    let exp_bits = usize::BITS as usize - (n - 1).leading_zeros() as usize;
    let mut aig = Aig::new(format!("log2_{n}"));
    let x = aig.add_inputs("x", n);

    // Leading-one position: priority scan from MSB.
    let mut found = Lit::FALSE;
    let mut exponent = words::constant_word(0, exp_bits);
    for i in (0..n).rev() {
        let is_leading = aig.and(x[i], !found);
        let this_exp = words::constant_word(i as u64, exp_bits);
        exponent = words::mux_word(&mut aig, is_leading, &this_exp, &exponent);
        found = aig.or(found, x[i]);
    }
    // Normalize: shift left so the leading one moves to bit n-1, then take
    // the bits just below it as the fraction.
    let shift_amount: Vec<Lit> = {
        // shift = (n-1) - exponent.
        let n_minus_1 = words::constant_word((n - 1) as u64, exp_bits);
        let (diff, _borrow) = words::subtract(&mut aig, &n_minus_1, &exponent);
        diff
    };
    let normalized = words::barrel_shift_left(&mut aig, &x, &shift_amount);
    for (i, &e) in exponent.iter().enumerate() {
        aig.add_output(format!("e{i}"), e);
    }
    for i in 0..frac {
        // Fraction bit i sits `frac - i` places below the leading one.
        let bit = if frac - i < n {
            normalized[n - 1 - (frac - i)]
        } else {
            Lit::FALSE
        };
        aig.add_output(format!("f{i}"), bit);
    }
    aig
}

/// Bit-exact software model of [`log2`]: returns `(exponent, fraction)`.
pub fn log2_model(x: u64, n: usize, frac: usize) -> (u64, u64) {
    if x == 0 {
        return (0, 0);
    }
    let exponent = 63 - x.leading_zeros() as u64;
    let shift = (n as u64 - 1) - exponent;
    let normalized = (x << shift) & ((1 << n) - 1);
    let mut fraction = 0u64;
    for i in 0..frac {
        if frac - i < n {
            let bit = normalized >> (n - 1 - (frac - i)) & 1;
            fraction |= bit << i;
        }
    }
    (exponent, fraction)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval_word(aig: &Aig, inputs: u64) -> u64 {
        let bits: Vec<bool> = (0..aig.num_inputs())
            .map(|i| inputs >> i & 1 != 0)
            .collect();
        aig.evaluate(&bits)
            .iter()
            .enumerate()
            .map(|(i, &v)| (v as u64) << i)
            .sum()
    }

    #[test]
    fn adders_agree_with_arithmetic() {
        for make in [
            ripple_carry_adder as fn(usize) -> Aig,
            carry_lookahead_adder,
            kogge_stone_adder,
        ] {
            let aig = make(4);
            for a in 0..16u64 {
                for b in 0..16u64 {
                    assert_eq!(eval_word(&aig, a | b << 4), a + b, "{}", aig.name());
                }
            }
        }
    }

    #[test]
    fn multipliers_agree_with_arithmetic() {
        for make in [array_multiplier as fn(usize) -> Aig, wallace_multiplier] {
            let aig = make(4);
            for a in 0..16u64 {
                for b in 0..16u64 {
                    assert_eq!(eval_word(&aig, a | b << 4), a * b, "{}", aig.name());
                }
            }
        }
    }

    #[test]
    fn alu_implements_all_ops() {
        let n = 4;
        let aig = alu(n);
        for op in 0..8u64 {
            for a in (0..16u64).step_by(3) {
                for b in 0..16u64 {
                    let input = a | b << n | op << (2 * n);
                    assert_eq!(
                        eval_word(&aig, input),
                        alu_model(op, a, b, n),
                        "op={op} a={a} b={b}"
                    );
                }
            }
        }
    }

    #[test]
    fn max_selects_largest() {
        let aig = max_of(3, 3);
        for a in 0..8u64 {
            for b in 0..8u64 {
                for c in 0..8u64 {
                    let input = a | b << 3 | c << 6;
                    assert_eq!(eval_word(&aig, input), a.max(b).max(c));
                }
            }
        }
    }

    #[test]
    fn shifter_shifts_right() {
        let aig = barrel_shifter(8);
        for v in (0..256u64).step_by(7) {
            for s in 0..8u64 {
                assert_eq!(eval_word(&aig, v | s << 8), v >> s);
            }
        }
    }

    #[test]
    fn square_is_multiplication_by_self() {
        let aig = square(4);
        for a in 0..16u64 {
            assert_eq!(eval_word(&aig, a), a * a);
        }
    }

    #[test]
    fn sqrt_is_integer_square_root() {
        let aig = sqrt(8);
        for a in 0..256u64 {
            let want = (a as f64).sqrt().floor() as u64;
            assert_eq!(eval_word(&aig, a), want, "a={a}");
        }
    }

    #[test]
    fn divider_computes_quotient_and_remainder() {
        let n = 4;
        let aig = divider(n);
        for a in 0..16u64 {
            for b in 1..16u64 {
                let out = eval_word(&aig, a | b << n);
                let (q, r) = (out & 0xF, out >> n);
                assert_eq!(q, a / b, "a={a} b={b}");
                assert_eq!(r, a % b, "a={a} b={b}");
            }
        }
    }

    #[test]
    fn divider_by_zero_saturates_quotient() {
        let aig = divider(4);
        for a in 0..16u64 {
            let out = eval_word(&aig, a);
            assert_eq!(out & 0xF, 0xF, "quotient saturates");
            assert_eq!(out >> 4, a, "remainder is the dividend");
        }
    }

    #[test]
    fn sine_matches_model() {
        let n = 6;
        let aig = sine(n);
        for x in 0..(1u64 << n) {
            assert_eq!(eval_word(&aig, x), sine_model(x, n), "x={x}");
        }
    }

    #[test]
    fn sine_peaks_mid_range() {
        let n = 8;
        let mid = sine_model(1 << (n - 1), n);
        let low = sine_model(3, n);
        assert!(mid > low);
    }

    #[test]
    fn log2_matches_model() {
        let n = 8;
        let frac = 4;
        let aig = log2(n, frac);
        let exp_bits = 3;
        for x in 0..256u64 {
            let out = eval_word(&aig, x);
            let (e, f) = (out & ((1 << exp_bits) - 1), out >> exp_bits);
            let (we, wf) = log2_model(x, n, frac);
            assert_eq!((e, f), (we, wf), "x={x}");
        }
    }

    #[test]
    fn generated_sizes_are_reasonable() {
        // Paper-scale sanity: the 32-bit adders and 8-bit multipliers land
        // in the same magnitude as Table III's node counts.
        assert!(ripple_carry_adder(32).num_ands() < 700);
        assert!(carry_lookahead_adder(32).num_ands() < 7000);
        assert!(kogge_stone_adder(32).num_ands() < 1500);
        let m = array_multiplier(8).num_ands();
        assert!((300..1500).contains(&m), "mtp8 size {m}");
    }
}
