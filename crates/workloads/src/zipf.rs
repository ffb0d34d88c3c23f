//! Zipfian sampling for skewed popularity distributions.

use ddc_sim::SimRng;

/// A Zipf(θ) sampler over `0..n` using a precomputed CDF and binary
/// search, narrowed first by a guide table. θ = 0 degenerates to
/// uniform; θ ≈ 0.99 is the YCSB default.
///
/// # Example
///
/// ```
/// use ddc_workloads::Zipf;
/// use ddc_sim::SimRng;
///
/// let z = Zipf::new(100, 0.99);
/// let mut rng = SimRng::new(1);
/// let v = z.sample(&mut rng);
/// assert!(v < 100);
/// ```
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
    /// `guide[k]` = how many cumulative probabilities lie below `k / K`,
    /// for `K = guide.len() - 1`, a power of two (so `u * K` and `k / K`
    /// are exact in `f64`): a draw `u` in bucket `b = floor(u * K)` has
    /// its rank in `guide[b]..=guide[b + 1]`, usually a range of one or
    /// two, where the full search takes `log2(n)` steps over the CDF.
    guide: Vec<u32>,
}

impl Zipf {
    /// Builds a sampler over `0..n` with skew `theta`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or above `u32::MAX`, or `theta` is negative
    /// or not finite.
    pub fn new(n: usize, theta: f64) -> Zipf {
        assert!(n > 0, "zipf needs a non-empty domain");
        assert!(u32::try_from(n).is_ok(), "zipf ranks are 32-bit");
        assert!(
            theta.is_finite() && theta >= 0.0,
            "zipf skew must be finite and non-negative"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        let buckets = n.next_power_of_two();
        let mut guide = Vec::with_capacity(buckets + 1);
        let mut below = 0;
        for k in 0..=buckets {
            let edge = k as f64 / buckets as f64;
            while below < n && cdf[below] < edge {
                below += 1;
            }
            guide.push(below as u32);
        }
        Zipf { cdf, guide }
    }

    /// Domain size.
    pub fn n(&self) -> usize {
        self.cdf.len()
    }

    /// Draws one sample in `0..n` (0 is the most popular rank).
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        self.rank(rng.next_f64())
    }

    /// The rank a uniform draw `u` in `[0, 1)` lands on: the first
    /// whose cumulative probability reaches `u`.
    fn rank(&self, u: f64) -> usize {
        // Everything below `guide[bucket]` is under `bucket / K <= u`,
        // everything from `guide[bucket + 1]` on is at least
        // `(bucket + 1) / K > u`: the partition point of the whole CDF
        // lies between them.
        let bucket = (u * (self.guide.len() - 1) as f64) as usize;
        let (lo, hi) = (self.guide[bucket] as usize, self.guide[bucket + 1] as usize);
        let rank = lo + self.cdf[lo..hi].partition_point(|&c| c < u);
        debug_assert_eq!(rank, self.cdf.partition_point(|&c| c < u), "u = {u:e}");
        rank.min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_in_domain() {
        let z = Zipf::new(10, 0.99);
        let mut rng = SimRng::new(3);
        for _ in 0..1000 {
            assert!(z.sample(&mut rng) < 10);
        }
        assert_eq!(z.n(), 10);
    }

    #[test]
    fn skew_prefers_low_ranks() {
        let z = Zipf::new(100, 1.0);
        let mut rng = SimRng::new(5);
        let mut counts = [0u32; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[10] > counts[90]);
        // Rank 0 of Zipf(1.0, n=100) has probability ~1/H(100) ≈ 0.19.
        let p0 = counts[0] as f64 / 20_000.0;
        assert!((p0 - 0.19).abs() < 0.03, "p0={p0}");
    }

    #[test]
    fn zero_theta_is_uniform() {
        let z = Zipf::new(4, 0.0);
        let mut rng = SimRng::new(7);
        let mut counts = [0u32; 4];
        for _ in 0..40_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for c in counts {
            let p = c as f64 / 40_000.0;
            assert!((p - 0.25).abs() < 0.02, "p={p}");
        }
    }

    #[test]
    fn single_element_domain() {
        let z = Zipf::new(1, 0.99);
        let mut rng = SimRng::new(9);
        assert_eq!(z.sample(&mut rng), 0);
    }

    /// The sampler's definition, searched the slow way.
    fn full_search(z: &Zipf, u: f64) -> usize {
        z.cdf.partition_point(|&c| c < u).min(z.cdf.len() - 1)
    }

    const DOMAINS: [usize; 5] = [1, 2, 1000, 32_768, 50_001];
    const SKEWS: [f64; 5] = [0.0, 0.7, 0.9, 0.99, 1.2];

    #[test]
    fn every_draw_lands_on_the_rank_the_full_search_finds() {
        for n in DOMAINS {
            for theta in SKEWS {
                let z = Zipf::new(n, theta);
                let mut rng = SimRng::new(n as u64 ^ theta.to_bits());
                for _ in 0..100_000 {
                    let u = rng.next_f64();
                    assert_eq!(z.rank(u), full_search(&z, u), "n={n} theta={theta} u={u:e}");
                }
            }
        }
    }

    #[test]
    fn draws_at_the_edges_land_on_the_rank_the_full_search_finds() {
        for n in DOMAINS {
            for theta in SKEWS {
                let z = Zipf::new(n, theta);
                // Every k/K a power-of-two table could cut at, every
                // cumulative probability itself, and the neighbours of
                // both: where an off-by-one bucket would show.
                let buckets = (n.next_power_of_two() * 2) as u64;
                let cuts = (0..buckets).map(|k| k as f64 / buckets as f64);
                for edge in cuts.chain(z.cdf.iter().copied()) {
                    for u in [edge.next_down(), edge, edge.next_up()] {
                        if (0.0..1.0).contains(&u) {
                            assert_eq!(
                                z.rank(u),
                                full_search(&z, u),
                                "n={n} theta={theta} u={u:e}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-empty domain")]
    fn empty_domain_panics() {
        let _ = Zipf::new(0, 1.0);
    }
}
