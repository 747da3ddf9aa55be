//! Word-row kernels for the hot simulation loops.
//!
//! Every hot path in this crate — the topological sweep and event-driven
//! flip propagation — reduces to a handful of bitwise recurrences over
//! per-node word rows. Each kernel is one `zip` loop over its rows: the
//! lanes are independent, so the loop has no carried dependency beyond
//! the OR-reduction of [`and_diff_into`], and the optimizer is free to
//! unroll and vectorize it.
//!
//! The callers in [`crate::Simulation`] and [`crate::InfluenceScratch`]
//! obtain the non-aliasing source/destination slices these kernels require
//! via `split_at_mut` on their flat arenas, relying on the AIG invariant
//! that fanin indices are strictly smaller than the node index (topological
//! construction order) — no `unsafe` anywhere (`alsrac-sim` forbids it).

/// `dst[w] = (a[w] ^ m0) & (b[w] ^ m1)` — the AND-gate recurrence, with
/// fanin complements pre-expanded to the lane masks `m0`/`m1`.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn and_into(dst: &mut [u64], a: &[u64], b: &[u64], m0: u64, m1: u64) {
    assert_eq!(dst.len(), a.len(), "row length mismatch");
    assert_eq!(dst.len(), b.len(), "row length mismatch");
    for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
        *d = (x ^ m0) & (y ^ m1);
    }
}

/// [`and_into`] fused with the difference reduction the flip-propagation
/// loop needs: returns the OR over all words of `dst[w] ^ base[w]`, so each
/// freshly computed word is compared against the base simulation while it
/// is still in registers (a zero return is the quench signal).
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn and_diff_into(dst: &mut [u64], a: &[u64], b: &[u64], m0: u64, m1: u64, base: &[u64]) -> u64 {
    assert_eq!(dst.len(), a.len(), "row length mismatch");
    assert_eq!(dst.len(), b.len(), "row length mismatch");
    assert_eq!(dst.len(), base.len(), "row length mismatch");
    let mut diff = 0u64;
    for (((d, &x), &y), &k) in dst.iter_mut().zip(a).zip(b).zip(base) {
        let new = (x ^ m0) & (y ^ m1);
        diff |= new ^ k;
        *d = new;
    }
    diff
}

/// `dst[w] = !src[w]` — the complemented copy of output collection and
/// flip seeding.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn not_into(dst: &mut [u64], src: &[u64]) {
    assert_eq!(dst.len(), src.len(), "row length mismatch");
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = !s;
    }
}

/// `dst[w] = a[w] ^ b[w]` — the difference-row extraction used when
/// influence rows are collected for output-driving nodes.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn xor_into(dst: &mut [u64], a: &[u64], b: &[u64]) {
    assert_eq!(dst.len(), a.len(), "row length mismatch");
    assert_eq!(dst.len(), b.len(), "row length mismatch");
    for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
        *d = x ^ y;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alsrac_rt::Rng;

    fn random_row(rng: &mut Rng, len: usize) -> Vec<u64> {
        (0..len).map(|_| rng.next_u64()).collect()
    }

    /// Every kernel must match its scalar recurrence at row lengths from
    /// empty to 129 words.
    #[test]
    fn kernels_match_scalar_reference_on_ragged_lengths() {
        let mut rng = Rng::from_seed(0xBA7C4);
        for len in [0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 64, 129] {
            for &(m0, m1) in &[(0, 0), (u64::MAX, 0), (0, u64::MAX), (u64::MAX, u64::MAX)] {
                let a = random_row(&mut rng, len);
                let b = random_row(&mut rng, len);
                let base = random_row(&mut rng, len);

                let mut dst = vec![0u64; len];
                and_into(&mut dst, &a, &b, m0, m1);
                let want: Vec<u64> = (0..len).map(|w| (a[w] ^ m0) & (b[w] ^ m1)).collect();
                assert_eq!(dst, want, "and_into len={len} m0={m0:x} m1={m1:x}");

                let mut dst2 = vec![0u64; len];
                let diff = and_diff_into(&mut dst2, &a, &b, m0, m1, &base);
                assert_eq!(dst2, want, "and_diff_into values len={len}");
                let want_diff = (0..len).fold(0u64, |acc, w| acc | (want[w] ^ base[w]));
                assert_eq!(diff, want_diff, "and_diff_into diff len={len}");

                let mut dst3 = vec![0u64; len];
                not_into(&mut dst3, &a);
                assert!(
                    dst3.iter().zip(&a).all(|(&d, &s)| d == !s),
                    "not_into len={len}"
                );

                let mut dst4 = vec![0u64; len];
                xor_into(&mut dst4, &a, &b);
                assert!(
                    dst4.iter().zip(&a).zip(&b).all(|((&d, &x), &y)| d == x ^ y),
                    "xor_into len={len}"
                );
            }
        }
    }

    #[test]
    fn quench_signal_is_zero_iff_identical() {
        let a = vec![0b1100u64; 9];
        let b = vec![0b1010u64; 9];
        let want: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| x & y).collect();
        let mut dst = vec![0u64; 9];
        assert_eq!(and_diff_into(&mut dst, &a, &b, 0, 0, &want), 0);
        let mut off_base = want.clone();
        off_base[8] ^= 1 << 17;
        assert_eq!(and_diff_into(&mut dst, &a, &b, 0, 0, &off_base), 1 << 17);
    }

    #[test]
    #[should_panic(expected = "row length mismatch")]
    fn length_mismatch_panics() {
        let mut dst = vec![0u64; 3];
        and_into(&mut dst, &[0; 2], &[0; 3], 0, 0);
    }
}
