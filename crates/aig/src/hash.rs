//! A fast hasher for keys the code assigns itself.

use std::hash::{BuildHasher, Hasher};

/// A multiply-rotate hasher in the style of FxHash, and its own
/// [`BuildHasher`], for maps keyed by literal pairs and truth-table words.
///
/// It is much cheaper than the standard library's SipHash but offers no
/// protection against keys chosen to collide, so use it only where the
/// program assigns the keys itself: structural hashing and the
/// optimizer's recipe cache.
///
/// ```
/// use std::collections::HashMap;
/// use alsrac_aig::FxHasher;
///
/// let mut map: HashMap<(u32, u32), u32, FxHasher> = HashMap::default();
/// map.insert((2, 4), 3);
/// assert_eq!(map.get(&(2, 4)), Some(&3));
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FxHasher::SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
        }
        for &byte in chunks.remainder() {
            self.add(u64::from(byte));
        }
    }

    #[inline]
    fn write_u32(&mut self, value: u32) {
        self.add(u64::from(value));
    }

    #[inline]
    fn write_u64(&mut self, value: u64) {
        self.add(value);
    }

    /// The state with its well-mixed high bits rotated down, since hash
    /// tables pick buckets by the low bits.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

impl BuildHasher for FxHasher {
    type Hasher = FxHasher;

    #[inline]
    fn build_hasher(&self) -> FxHasher {
        FxHasher::default()
    }
}
