//! Seed-derived inputs: a small deterministic RNG and the file contents
//! the load generator writes.
//!
//! Contents are a function of a per-write tag and the *file offset*, never
//! a constant fill, so a cacheline that lands at the wrong offset or that
//! holds bytes from an earlier write of the same range reads back wrong.

/// SplitMix64 finalizer: a strong 64-bit mix of `x`.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derives an independent seed for stream `k` of `seed`.
pub fn derive(seed: u64, k: u64) -> u64 {
    mix(seed ^ mix(k.wrapping_add(0x5eed)))
}

/// A deterministic SplitMix64 generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// A uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A size drawn uniformly from `mean/2 ..= 3·mean/2` (filebench's
    /// gamma replaced by a flat spread around the mean), at least 1.
    pub fn around(&mut self, mean: usize) -> usize {
        let half = (mean / 2).max(1);
        (mean - half + self.below(2 * half + 1)).max(1)
    }
}

/// Fills `buf` with the content a write tagged `tag` puts at file offset
/// `off`: byte `o` is byte `o % 8` of `mix(tag ^ o / 8)`.
pub fn fill(tag: u64, off: u64, buf: &mut [u8]) {
    let mut o = off;
    let mut i = 0;
    while i < buf.len() {
        let word = mix(tag ^ (o / 8)).to_le_bytes();
        let start = (o % 8) as usize;
        let n = (8 - start).min(buf.len() - i);
        buf[i..i + n].copy_from_slice(&word[start..start + n]);
        i += n;
        o += n as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_depends_on_offset_not_on_split() {
        let mut whole = vec![0u8; 100];
        fill(7, 13, &mut whole);
        let mut parts = vec![0u8; 100];
        fill(7, 13, &mut parts[..31]);
        fill(7, 44, &mut parts[31..]);
        assert_eq!(whole, parts);
        let mut shifted = vec![0u8; 100];
        fill(7, 14, &mut shifted);
        assert_ne!(whole, shifted);
        let mut other = vec![0u8; 100];
        fill(8, 13, &mut other);
        assert_ne!(whole, other);
    }

    #[test]
    fn around_stays_in_range() {
        let mut r = Rng::new(1);
        for _ in 0..1000 {
            let s = r.around(100);
            assert!((50..=150).contains(&s));
        }
    }
}
