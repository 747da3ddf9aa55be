//! Espresso-style two-level minimization: expand / irredundant / reduce.
//!
//! Iterating EXPAND, IRREDUNDANT_COVER and REDUCE, as Espresso does, trades
//! cubes against literals on covers that are not yet prime and
//! irredundant. This module implements a truth-table-backed version of
//! that loop for small (≤ ~12 input) functions. On an
//! [`isop`](crate::isop) cover, which is already prime and irredundant,
//! the first round changes nothing and the cover comes back unchanged
//! (this module's tests pin that), so the synthesis flows skip the loop.

use crate::{Cube, Sop, Tt};

/// Maximum number of expand/reduce rounds before giving up on improvement.
const MAX_ROUNDS: usize = 4;

/// Improves a two-level cover of an incompletely specified function.
///
/// `initial` must satisfy `on ⊆ initial ⊆ on ∪ dc`; the returned cover
/// satisfies the same interval and has a cost (cube count, then literal
/// count) no worse than the initial cover.
///
/// # Panics
///
/// Panics if the variable counts disagree, `on` and `dc` overlap, or
/// `initial` violates the interval.
///
/// # Example
///
/// ```
/// use alsrac_truthtable::{isop, minimize, Tt};
///
/// let on = Tt::from_fn(4, |p| (p & 0b11) == 0b11);
/// let dc = Tt::from_fn(4, |p| (p & 0b11) == 0b01);
/// let cover = minimize(&isop(&on, &on.or(&dc)), &on, &dc);
/// assert!(cover.num_cubes() <= 1 + isop(&on, &on.or(&dc)).num_cubes());
/// ```
pub fn minimize(initial: &Sop, on: &Tt, dc: &Tt) -> Sop {
    let nvars = on.nvars();
    assert_eq!(nvars, dc.nvars(), "variable count mismatch");
    assert!(on.and(dc).is_const0(), "on-set and dc-set overlap");
    let upper = on.or(dc);
    let f = initial.to_tt(nvars);
    assert!(
        on.and(&f.not()).is_const0() && f.and(&upper.not()).is_const0(),
        "initial cover violates the on/dc interval"
    );

    let mut best = initial.clone();
    let mut best_cost = cost(&best);
    let mut current = initial.clone();
    for _ in 0..MAX_ROUNDS {
        expand(&mut current, &upper, nvars);
        drop_contained(&mut current);
        irredundant(&mut current, on, nvars);
        let c = cost(&current);
        if c < best_cost {
            best_cost = c;
            best = current.clone();
        } else {
            break;
        }
        reduce(&mut current, on, nvars);
    }
    debug_assert!(on.and(&best.to_tt(nvars).not()).is_const0());
    debug_assert!(best.to_tt(nvars).and(&upper.not()).is_const0());
    best
}

fn cost(s: &Sop) -> (usize, u32) {
    (s.num_cubes(), s.num_literals())
}

/// EXPAND: greedily drop literals from each cube while the cube stays inside
/// `upper` (on ∪ dc).
fn expand(cover: &mut Sop, upper: &Tt, nvars: usize) {
    let off = upper.not();
    let cubes: Vec<Cube> = cover
        .cubes()
        .iter()
        .map(|&cube| {
            let mut cube = cube;
            for v in 0..nvars {
                let candidate = cube.without(v);
                if candidate == cube {
                    continue;
                }
                if candidate.to_tt(nvars).and(&off).is_const0() {
                    cube = candidate;
                }
            }
            cube
        })
        .collect();
    *cover = Sop::new(cubes);
}

/// Removes cubes contained in another single cube of the cover.
fn drop_contained(cover: &mut Sop) {
    let cubes = cover.cubes().to_vec();
    let mut keep = vec![true; cubes.len()];
    for i in 0..cubes.len() {
        if !keep[i] {
            continue;
        }
        for j in 0..cubes.len() {
            if i != j
                && keep[j]
                && cubes[i].is_contained_in(cubes[j])
                && (i > j || cubes[i] != cubes[j])
            {
                keep[i] = false;
                break;
            }
        }
    }
    *cover = cubes
        .into_iter()
        .zip(keep)
        .filter(|(_, k)| *k)
        .map(|(c, _)| c)
        .collect();
}

/// IRREDUNDANT: drop cubes whose on-set contribution is covered by the rest.
fn irredundant(cover: &mut Sop, on: &Tt, nvars: usize) {
    let mut cubes = cover.cubes().to_vec();
    // Try dropping larger cubes last so small special-case cubes go first.
    let mut order: Vec<usize> = (0..cubes.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(cubes[i].num_literals()));
    for &i in &order {
        let candidate = cubes[i];
        let rest: Sop = cubes
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i && cubes[j] != candidate)
            .map(|(_, c)| *c)
            .collect();
        let contribution = on.and(&candidate.to_tt(nvars));
        if contribution.and(&rest.to_tt(nvars).not()).is_const0() {
            // Mark as removed by replacing with a duplicate sentinel: easier
            // to filter once at the end.
            cubes[i] = Cube {
                pos: u32::MAX,
                neg: u32::MAX,
            };
        }
    }
    *cover = cubes
        .into_iter()
        .filter(|c| {
            *c != Cube {
                pos: u32::MAX,
                neg: u32::MAX,
            }
        })
        .collect();
}

/// REDUCE: shrink each cube to the smallest cube still covering the on-set
/// minterms only it covers, opening room for the next EXPAND.
fn reduce(cover: &mut Sop, on: &Tt, nvars: usize) {
    let cubes = cover.cubes().to_vec();
    let mut reduced = Vec::with_capacity(cubes.len());
    for (i, &cube) in cubes.iter().enumerate() {
        let others: Sop = cubes
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(_, c)| *c)
            .collect();
        let required = on.and(&cube.to_tt(nvars)).and(&others.to_tt(nvars).not());
        if required.is_const0() {
            reduced.push(cube);
            continue;
        }
        let mut shrunk = cube;
        for v in 0..nvars {
            if shrunk.pos >> v & 1 != 0 || shrunk.neg >> v & 1 != 0 {
                continue;
            }
            let var_tt = Tt::var(v, nvars);
            if required.and(&var_tt.not()).is_const0() {
                shrunk = shrunk.with_pos(v);
            } else if required.and(&var_tt).is_const0() {
                shrunk = shrunk.with_neg(v);
            }
        }
        reduced.push(shrunk);
    }
    *cover = Sop::new(reduced);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isop;

    fn check_interval(cover: &Sop, on: &Tt, dc: &Tt) {
        let f = cover.to_tt(on.nvars());
        assert!(on.and(&f.not()).is_const0(), "misses on-set");
        assert!(f.and(&on.or(dc).not()).is_const0(), "hits off-set");
    }

    #[test]
    fn minimize_keeps_interval_exhaustive_3var() {
        for on_bits in (0u64..256).step_by(7) {
            for dc_bits in (0u64..256).step_by(11) {
                let dc_bits = dc_bits & !on_bits;
                let on = Tt::from_bits(3, on_bits);
                let dc = Tt::from_bits(3, dc_bits);
                let initial = isop(&on, &on.or(&dc));
                let min = minimize(&initial, &on, &dc);
                check_interval(&min, &on, &dc);
                assert!(cost(&min) <= cost(&initial));
            }
        }
    }

    /// `minimize` hands an ISOP back unchanged: a Minato–Morreale cover is
    /// prime and irredundant, so EXPAND, the containment sweep and
    /// IRREDUNDANT find nothing to improve. The synthesis flows rely on
    /// this and use `isop` alone.
    fn assert_isop_is_a_fixed_point(on: &Tt, dc: &Tt) {
        let cover = isop(on, &on.or(dc));
        assert_eq!(minimize(&cover, on, dc), cover, "on {on:?} dc {dc:?}");
    }

    #[test]
    fn isop_is_a_fixed_point_on_every_interval_up_to_3_vars() {
        for nvars in 0..=3 {
            let patterns = 1u32 << nvars;
            for on_bits in 0..1u64 << patterns {
                for dc_bits in (0..1u64 << patterns).filter(|dc| dc & on_bits == 0) {
                    let on = Tt::from_bits(nvars, on_bits);
                    let dc = Tt::from_bits(nvars, dc_bits);
                    assert_isop_is_a_fixed_point(&on, &dc);
                }
            }
        }
    }

    /// SplitMix64: a seeded stream without a dependency.
    fn splitmix(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    /// The rewrite pass's cut functions: 4 variables, no don't-cares. All
    /// 65,536 take about 10 s under the debug profile, so a seeded sample.
    #[test]
    fn isop_is_a_fixed_point_on_completely_specified_4_var_functions() {
        let mut next = splitmix(0x4F4);
        let dc = Tt::zero(4);
        for _ in 0..4096 {
            assert_isop_is_a_fixed_point(&Tt::from_bits(4, next()), &dc);
        }
    }

    /// Refactor cones have up to 10 leaves.
    #[test]
    fn isop_is_a_fixed_point_on_random_intervals_up_to_10_vars() {
        let mut next = splitmix(0x1505);
        for round in 0..70 {
            let nvars = 4 + round % 7;
            // Vary the densities so sparse, dense and don't-care-heavy
            // intervals all occur: an entry is on with probability
            // `on_in_16 / 16`, else a don't-care with `dc_in_16 / 16`.
            let on_in_16 = next() % 17;
            let dc_in_16 = next() % 17;
            let mut on = Tt::zero(nvars);
            let mut dc = Tt::zero(nvars);
            for p in 0..on.num_patterns() {
                let draw = next();
                if draw % 16 < on_in_16 {
                    on.set(p, true);
                } else if (draw >> 8) % 16 < dc_in_16 {
                    dc.set(p, true);
                }
            }
            assert_isop_is_a_fixed_point(&on, &dc);
        }
    }

    #[test]
    fn minimize_constant_zero() {
        let on = Tt::zero(4);
        let dc = Tt::zero(4);
        let min = minimize(&Sop::zero(), &on, &dc);
        assert!(min.is_zero());
    }

    #[test]
    fn minimize_tautology() {
        let on = Tt::ones(3);
        let dc = Tt::zero(3);
        let min = minimize(&isop(&on, &on), &on, &dc);
        assert_eq!(min.num_cubes(), 1);
        assert_eq!(min.num_literals(), 0);
    }

    #[test]
    fn expand_uses_dont_cares() {
        // on = {111}, dc = everything else except {000}: expand should grow
        // the full-literal cube into something with at most one literal.
        let on = Tt::from_fn(3, |p| p == 7);
        let dc = Tt::from_fn(3, |p| p != 7 && p != 0);
        let initial = Sop::new(vec![Cube::TAUTOLOGY.with_pos(0).with_pos(1).with_pos(2)]);
        let min = minimize(&initial, &on, &dc);
        check_interval(&min, &on, &dc);
        assert_eq!(min.num_cubes(), 1);
        assert!(min.num_literals() <= 1);
    }

    #[test]
    fn redundant_cube_is_dropped() {
        // f = x0 + x0 x1 (second cube redundant).
        let on = Tt::var(0, 2);
        let dc = Tt::zero(2);
        let initial = Sop::new(vec![
            Cube::TAUTOLOGY.with_pos(0),
            Cube::TAUTOLOGY.with_pos(0).with_pos(1),
        ]);
        let min = minimize(&initial, &on, &dc);
        assert_eq!(min.num_cubes(), 1);
        check_interval(&min, &on, &dc);
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn rejects_overlapping_on_dc() {
        let on = Tt::ones(2);
        let dc = Tt::ones(2);
        minimize(&Sop::zero(), &on, &dc);
    }

    #[test]
    #[should_panic(expected = "violates")]
    fn rejects_bad_initial_cover() {
        let on = Tt::ones(2);
        let dc = Tt::zero(2);
        minimize(&Sop::zero(), &on, &dc);
    }
}
