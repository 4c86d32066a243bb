//! Deterministic hashing utilities.
//!
//! The population is a *pure function* of `(seed, rank)`: every decision —
//! does site #4711 embed YouTube? is its header misconfigured? — is a
//! threshold test on a salted 64-bit hash. No RNG state, no ordering
//! dependence: the same seed always generates the same web, and any site
//! can be materialized in O(1) without generating the others.

/// SplitMix64 finalizer — good avalanche behaviour, cheap.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The hash state of one site, optionally advanced over a salt prefix.
///
/// `h(seed, rank, salt)` starts from the `(seed, rank)` state and feeds
/// the salt one byte at a time, so a state fed a shared prefix once
/// (`"incl-"`, `"iframe-youtube-"`) can be copied and finished with each
/// suffix: `SiteHash::new(seed, rank).feed("incl-").feed(key)` is exactly
/// `h(seed, rank, &format!("incl-{key}"))`, without building the salt.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SiteHash(u64);

impl SiteHash {
    /// The state of site `rank` in the population seeded with `seed`.
    pub fn new(seed: u64, rank: u64) -> SiteHash {
        SiteHash(mix64(mix64(seed ^ 0xd6e8_feb8_6659_fd93) ^ rank))
    }

    /// The state after feeding `salt`.
    #[must_use]
    pub fn feed(self, salt: &str) -> SiteHash {
        self.feed_bytes(salt.as_bytes())
    }

    /// The state after feeding `n` in decimal, as `format!("{n}")` spells it.
    #[must_use]
    pub fn feed_u64(self, mut n: u64) -> SiteHash {
        let mut digits = [0u8; 20];
        let mut start = digits.len();
        loop {
            start -= 1;
            digits[start] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        self.feed_bytes(&digits[start..])
    }

    fn feed_bytes(self, bytes: &[u8]) -> SiteHash {
        SiteHash(
            bytes
                .iter()
                .fold(self.0, |acc, &b| mix64(acc ^ u64::from(b))),
        )
    }

    /// The hash of everything fed so far.
    pub fn finish(self) -> u64 {
        self.0
    }

    /// A uniform draw in `[0, 1)`.
    pub fn unit(self) -> f64 {
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Bernoulli draw with probability `p`.
    pub fn chance(self, p: f64) -> bool {
        self.unit() < p
    }

    /// Picks an index by cumulative weights.
    pub fn pick_weighted(self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return 0;
        }
        let mut x = self.unit() * total;
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }

    /// Uniform integer in `[0, n)`.
    pub fn pick(self, n: usize) -> usize {
        if n == 0 {
            return 0;
        }
        (self.0 % n as u64) as usize
    }
}

/// Hashes `(seed, rank, salt)` into a u64.
pub fn h(seed: u64, rank: u64, salt: &str) -> u64 {
    SiteHash::new(seed, rank).feed(salt).finish()
}

/// A uniform draw in `[0, 1)` from a hash.
pub fn unit(seed: u64, rank: u64, salt: &str) -> f64 {
    SiteHash::new(seed, rank).feed(salt).unit()
}

/// Bernoulli draw with probability `p`.
pub fn chance(seed: u64, rank: u64, salt: &str, p: f64) -> bool {
    SiteHash::new(seed, rank).feed(salt).chance(p)
}

/// Picks an index by cumulative weights.
pub fn pick_weighted(seed: u64, rank: u64, salt: &str, weights: &[f64]) -> usize {
    SiteHash::new(seed, rank).feed(salt).pick_weighted(weights)
}

/// Uniform integer in `[0, n)`.
pub fn pick(seed: u64, rank: u64, salt: &str, n: usize) -> usize {
    SiteHash::new(seed, rank).feed(salt).pick(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(h(1, 2, "x"), h(1, 2, "x"));
        assert_ne!(h(1, 2, "x"), h(1, 2, "y"));
        assert_ne!(h(1, 2, "x"), h(1, 3, "x"));
        assert_ne!(h(1, 2, "x"), h(2, 2, "x"));
    }

    #[test]
    fn unit_in_range() {
        for rank in 0..1000 {
            let u = unit(7, rank, "u");
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn chance_frequency_approximates_p() {
        let n = 20_000;
        let hits = (0..n).filter(|&r| chance(42, r, "freq", 0.25)).count();
        let freq = hits as f64 / n as f64;
        assert!((freq - 0.25).abs() < 0.02, "freq = {freq}");
    }

    #[test]
    fn pick_weighted_respects_weights() {
        let weights = [8.0, 1.0, 1.0];
        let n = 30_000;
        let zero = (0..n)
            .filter(|&r| pick_weighted(9, r, "w", &weights) == 0)
            .count();
        let freq = zero as f64 / n as f64;
        assert!((freq - 0.8).abs() < 0.02, "freq = {freq}");
    }

    #[test]
    fn prefix_states_match_whole_salts() {
        // The pre-state-refactor definition, kept as the reference.
        fn reference(seed: u64, rank: u64, salt: &str) -> u64 {
            let mut acc = mix64(seed ^ 0xd6e8_feb8_6659_fd93);
            acc = mix64(acc ^ rank);
            for &b in salt.as_bytes() {
                acc = mix64(acc ^ u64::from(b));
            }
            acc
        }
        for rank in [0u64, 1, 77, u64::MAX] {
            let site = SiteHash::new(3, rank);
            assert_eq!(site.finish(), reference(3, rank, ""));
            for n in [0u64, 7, 10, 4_711, u64::MAX] {
                let salt = format!("iframe-youtube-{n}");
                let fed = site.feed("iframe-").feed("youtube").feed("-").feed_u64(n);
                assert_eq!(fed.finish(), reference(3, rank, &salt), "{salt}");
                assert_eq!(h(3, rank, &salt), reference(3, rank, &salt), "{salt}");
            }
        }
    }

    #[test]
    fn pick_in_range() {
        for rank in 0..100 {
            assert!(pick(3, rank, "p", 7) < 7);
        }
        assert_eq!(pick(3, 0, "p", 0), 0);
    }
}
