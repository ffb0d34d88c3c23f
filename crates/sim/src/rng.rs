//! Deterministic, portable pseudo-random number generation.
//!
//! Experiments must be exactly reproducible across runs and platforms, so
//! the simulator carries its own small PRNG (xoshiro256++ seeded through
//! SplitMix64) instead of depending on `rand`'s unstable `StdRng`
//! algorithm. The sampling helpers cover everything the workload models
//! need: uniform ranges, floats and Bernoulli trials. Heavier-tailed
//! distributions (Zipf, Pareto file sizes) are layered on top in
//! `ddc-workloads`.

/// A deterministic PRNG (xoshiro256++) for simulation use.
///
/// Two generators created with the same seed produce identical streams on
/// every platform and in every future version of this crate.
///
/// # Example
///
/// ```
/// use ddc_sim::SimRng;
///
/// let mut a = SimRng::new(42);
/// let mut b = SimRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimRng {
    state: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a seed. Any seed (including zero) is valid.
    pub fn new(seed: u64) -> SimRng {
        // SplitMix64 expansion, the recommended seeding procedure for the
        // xoshiro family.
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        SimRng {
            state: [next(), next(), next(), next()],
        }
    }

    /// Derives an independent child generator; used to give each workload
    /// thread its own stream so that thread interleaving does not perturb
    /// per-thread randomness.
    pub fn fork(&mut self, salt: u64) -> SimRng {
        SimRng::new(self.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below bound must be positive");
        // Lemire's unbiased multiply-shift rejection method.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut low = m as u64;
        if low < bound {
            let threshold = bound.wrapping_neg() % bound;
            while low < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in `[lo, hi)` .
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + self.next_below(hi - lo)
    }

    /// Uniform integer in `[lo, hi)` as `usize`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range_u64(lo as u64, hi as u64) as usize
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits give a uniform dyadic rational in [0,1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Picks a uniformly random element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "cannot pick from an empty slice");
        &items[self.next_below(items.len() as u64) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn distinct_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "independent seeds should rarely collide");
    }

    #[test]
    fn fork_is_deterministic_and_independent() {
        let mut parent1 = SimRng::new(9);
        let mut parent2 = SimRng::new(9);
        let mut c1 = parent1.fork(3);
        let mut c2 = parent2.fork(3);
        assert_eq!(c1.next_u64(), c2.next_u64());
        let mut other = parent1.fork(4);
        assert_ne!(c1.next_u64(), other.next_u64());
    }

    #[test]
    fn next_below_respects_bound() {
        let mut rng = SimRng::new(11);
        for bound in [1u64, 2, 3, 10, 1000, u64::MAX / 2] {
            for _ in 0..200 {
                assert!(rng.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn next_below_covers_small_ranges() {
        let mut rng = SimRng::new(13);
        let mut seen = [false; 5];
        for _ in 0..500 {
            seen[rng.next_below(5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_panics() {
        SimRng::new(0).next_below(0);
    }

    #[test]
    fn range_bounds() {
        let mut rng = SimRng::new(17);
        for _ in 0..300 {
            let v = rng.range_u64(10, 20);
            assert!((10..20).contains(&v));
            let u = rng.range_usize(3, 5);
            assert!((3..5).contains(&u));
        }
    }

    #[test]
    fn floats_in_unit_interval_and_roughly_uniform() {
        let mut rng = SimRng::new(23);
        let mut sum = 0.0;
        const N: usize = 10_000;
        for _ in 0..N {
            let f = rng.next_f64();
            assert!((0.0..1.0).contains(&f));
            sum += f;
        }
        let mean = sum / N as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} too far from 0.5");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::new(29);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn pick_returns_member() {
        let mut rng = SimRng::new(43);
        let items = [1, 2, 3];
        for _ in 0..50 {
            assert!(items.contains(rng.pick(&items)));
        }
    }
}
