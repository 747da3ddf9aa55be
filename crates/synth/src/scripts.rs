//! Optimization scripts combining the individual passes.

use alsrac_aig::Aig;

use crate::Optimizer;

/// Structural sweep: constant propagation, re-hashing, dangling-node
/// removal. This is [`Aig::cleaned`], re-exported under ABC's name.
pub fn sweep(aig: &Aig) -> Aig {
    aig.cleaned()
}

/// The `resyn2`-like script with a fresh recipe cache: alternating balance
/// / rewrite / refactor rounds, with zero-gain variants in the later
/// rounds, mirroring ABC's `resyn2` (`b; rw; rf; b; rw; rwz; b; rfz; rwz;
/// b`). Same as [`Optimizer::resyn2_lite`].
pub fn resyn2_lite(aig: &Aig) -> Aig {
    Optimizer::new().resyn2_lite(aig)
}

/// The combination ALSRAC runs after each accepted change, `sweep; resyn2`
/// (Algorithm 3, line 9), with a fresh recipe cache. Same as
/// [`Optimizer::optimize`].
pub fn optimize(aig: &Aig) -> Aig {
    Optimizer::new().optimize(aig)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_equivalent(a: &Aig, b: &Aig) {
        let n = a.num_inputs();
        assert_eq!(n, b.num_inputs());
        assert!(n <= 12);
        for p in 0..1u64 << n {
            let bits: Vec<bool> = (0..n).map(|i| p >> i & 1 != 0).collect();
            assert_eq!(a.evaluate(&bits), b.evaluate(&bits), "pattern {p:b}");
        }
    }

    #[test]
    fn optimize_preserves_and_shrinks_cla() {
        // The flattened CLA has heavy redundancy a real optimizer must find.
        let aig = alsrac_circuits::arith::carry_lookahead_adder(5);
        let optimized = optimize(&aig);
        assert_equivalent(&aig, &optimized);
        assert!(
            optimized.num_ands() < aig.num_ands(),
            "{} -> {}",
            aig.num_ands(),
            optimized.num_ands()
        );
    }

    #[test]
    fn optimize_preserves_various_circuits() {
        for aig in [
            alsrac_circuits::arith::alu(3),
            alsrac_circuits::arith::sqrt(6),
            alsrac_circuits::control::arbiter(5),
            alsrac_circuits::control::int_to_float(6, 3, 3),
        ] {
            let optimized = optimize(&aig);
            assert_equivalent(&aig, &optimized);
            assert!(optimized.num_ands() <= aig.num_ands(), "{}", aig.name());
        }
    }

    #[test]
    fn optimize_handles_trivial_graphs() {
        let mut aig = Aig::new("buf");
        let a = aig.add_input("a");
        aig.add_output("y", !a);
        let optimized = optimize(&aig);
        assert_eq!(optimized.num_ands(), 0);
        assert_eq!(optimized.evaluate(&[true]), vec![false]);
    }
}
