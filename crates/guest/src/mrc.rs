//! Miss-ratio-curve estimation from inside the guest.
//!
//! The paper (§5.2.1) notes that DoubleDecker's VM-level manager can
//! drive provisioning with "well known techniques like MRC, WSS
//! estimation, SHARDS", and that "the estimation should be done from
//! within the VM". This module implements that building block: a
//! SHARDS-style spatially-sampled reuse-distance tracker that yields a
//! miss-ratio curve — the expected miss ratio of an LRU cache of any
//! given size — for each container's block-access stream.
//!
//! Sampling: an access to address `a` is tracked iff
//! `hash(a) mod P < T`; each sampled reuse distance is scaled by `P/T`.
//! With the default rate of 1/64 the tracker's state and per-access cost
//! are negligible while the curve stays accurate to a few percent
//! (Waldspurger et al., FAST '15 report ~1% error at rates far lower).

use ddc_sim::FxHashMap;
use std::collections::BTreeMap;

use ddc_storage::BlockAddr;

/// Number of histogram buckets in a curve.
const BUCKETS: usize = 64;

/// A miss-ratio curve: estimated miss ratio as a function of cache size
/// (in blocks).
#[derive(Clone, Debug, PartialEq)]
pub struct MissRatioCurve {
    /// Upper cache-size bound of each bucket, in blocks.
    sizes: Vec<u64>,
    /// Estimated miss ratio at each size.
    ratios: Vec<f64>,
    /// Total (unsampled) accesses observed.
    accesses: u64,
}

impl MissRatioCurve {
    /// Estimated miss ratio for a cache of `size` blocks, linearly
    /// interpolated between histogram buckets so that callers comparing
    /// sizes see a smooth gradient (1.0 for an empty curve).
    pub fn miss_ratio_at(&self, size: u64) -> f64 {
        if self.ratios.is_empty() {
            return 1.0;
        }
        let i = self.sizes.partition_point(|&s| s < size);
        if i >= self.ratios.len() {
            return *self.ratios.last().expect("non-empty");
        }
        let (lo_size, lo_ratio) = if i == 0 {
            (0u64, 1.0)
        } else {
            (self.sizes[i - 1], self.ratios[i - 1])
        };
        let (hi_size, hi_ratio) = (self.sizes[i], self.ratios[i]);
        if hi_size == lo_size {
            return hi_ratio;
        }
        let f = (size.saturating_sub(lo_size)) as f64 / (hi_size - lo_size) as f64;
        lo_ratio + (hi_ratio - lo_ratio) * f
    }

    /// Total accesses the curve is based on.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }
}

/// A SHARDS-style sampled reuse-distance tracker.
///
/// Feed it every block access with [`record`](Self::record); extract the
/// current curve with [`curve`](Self::curve).
///
/// # Example
///
/// ```
/// use ddc_guest::MrcEstimator;
/// use ddc_storage::{BlockAddr, FileId};
///
/// let mut mrc = MrcEstimator::with_sample_rate(1); // sample everything
/// for round in 0..4 {
///     for b in 0..100u64 {
///         mrc.record(BlockAddr::new(FileId(1), b));
///     }
///     let _ = round;
/// }
/// let curve = mrc.curve();
/// // A 100-block cache captures the cyclic scan entirely...
/// assert!(curve.miss_ratio_at(128) < 0.5);
/// // ...a 10-block cache captures none of it.
/// assert!(curve.miss_ratio_at(10) > 0.9);
/// ```
#[derive(Clone, Debug)]
pub struct MrcEstimator {
    /// Sampling modulus: track addresses with `hash(a) % rate == 0`.
    rate: u64,
    /// Stamp counter over *sampled* accesses.
    clock: u64,
    /// Last-access stamp per sampled address.
    last_seen: FxHashMap<BlockAddr, u64>,
    /// Live stamps in order (stamp -> addr), for distance ranking.
    stamps: BTreeMap<u64, BlockAddr>,
    /// Histogram of scaled reuse distances.
    histogram: [u64; BUCKETS],
    /// Sampled accesses with no prior access (cold).
    cold: u64,
    /// Total accesses offered (sampled or not).
    accesses: u64,
    /// Cache sizes bounding each bucket.
    bucket_bounds: Vec<u64>,
}

impl MrcEstimator {
    /// Default sampling rate: one in 64 addresses.
    pub fn new() -> MrcEstimator {
        MrcEstimator::with_sample_rate(64)
    }

    /// Creates a tracker sampling one in `rate` addresses (`1` = track
    /// everything; useful in tests).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is zero.
    pub fn with_sample_rate(rate: u64) -> MrcEstimator {
        assert!(rate > 0, "sample rate must be positive");
        // Geometric bucket bounds from 16 blocks to ~16M blocks.
        let bucket_bounds = (0..BUCKETS)
            .map(|i| {
                let base = 16u64 << (i as u32 / 2);
                base + (base / 2) * (i as u64 % 2)
            })
            .collect();
        MrcEstimator {
            rate,
            clock: 0,
            last_seen: FxHashMap::default(),
            stamps: BTreeMap::new(),
            histogram: [0; BUCKETS],
            cold: 0,
            accesses: 0,
            bucket_bounds,
        }
    }

    /// Records one block access.
    pub fn record(&mut self, addr: BlockAddr) {
        self.accesses += 1;
        if !self.is_sampled(addr) {
            return;
        }
        self.clock += 1;
        let stamp = self.clock;
        match self.last_seen.insert(addr, stamp) {
            Some(prev) => {
                // Sampled reuse distance = number of distinct sampled
                // addresses touched since the previous access; scale by
                // the sampling rate for the true distance.
                let sampled_distance = self.stamps.range(prev + 1..).count() as u64;
                self.stamps.remove(&prev);
                let scaled = sampled_distance.saturating_mul(self.rate);
                let bucket = self
                    .bucket_bounds
                    .partition_point(|&b| b < scaled.max(1))
                    .min(BUCKETS - 1);
                self.histogram[bucket] += 1;
            }
            None => {
                self.cold += 1;
            }
        }
        self.stamps.insert(stamp, addr);
        // Bound memory: evict the oldest sampled address when tracking
        // too many (treat future reuse of it as cold — a standard SHARDS
        // s-max policy).
        if self.last_seen.len() > 64 * 1024 {
            if let Some((&oldest, &addr)) = self.stamps.iter().next() {
                self.stamps.remove(&oldest);
                self.last_seen.remove(&addr);
            }
        }
    }

    fn is_sampled(&self, addr: BlockAddr) -> bool {
        if self.rate == 1 {
            return true;
        }
        // Fibonacci hash of the (file, block) pair.
        let mut h = addr.file.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= addr.block.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
        h = (h ^ (h >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h.is_multiple_of(self.rate)
    }

    /// Builds the miss-ratio curve from the distances seen so far.
    pub fn curve(&self) -> MissRatioCurve {
        let reuses: u64 = self.histogram.iter().sum();
        let total = reuses + self.cold;
        if total == 0 {
            return MissRatioCurve {
                sizes: self.bucket_bounds.clone(),
                ratios: vec![1.0; BUCKETS],
                accesses: self.accesses,
            };
        }
        // Miss ratio at size s = (reuses with distance > s + cold) / total.
        let mut cumulative = 0u64;
        let ratios = self
            .histogram
            .iter()
            .map(|&count| {
                cumulative += count;
                (reuses - cumulative + self.cold) as f64 / total as f64
            })
            .collect();
        MissRatioCurve {
            sizes: self.bucket_bounds.clone(),
            ratios,
            accesses: self.accesses,
        }
    }
}

impl Default for MrcEstimator {
    fn default() -> Self {
        MrcEstimator::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddc_storage::FileId;

    fn addr(b: u64) -> BlockAddr {
        BlockAddr::new(FileId(1), b)
    }

    fn cyclic_scan(mrc: &mut MrcEstimator, set: u64, rounds: u64) {
        for _ in 0..rounds {
            for b in 0..set {
                mrc.record(addr(b));
            }
        }
    }

    #[test]
    fn cyclic_scan_has_sharp_knee() {
        let mut mrc = MrcEstimator::with_sample_rate(1);
        cyclic_scan(&mut mrc, 200, 10);
        let curve = mrc.curve();
        // LRU on a cyclic scan: miss everything below the set size,
        // hit everything above it.
        assert!(curve.miss_ratio_at(64) > 0.9, "below the knee");
        assert!(curve.miss_ratio_at(512) < 0.2, "above the knee");
        assert_eq!(curve.accesses(), 2000);
    }

    #[test]
    fn hot_loop_is_cache_friendly_at_small_sizes() {
        let mut mrc = MrcEstimator::with_sample_rate(1);
        cyclic_scan(&mut mrc, 8, 100);
        let curve = mrc.curve();
        assert!(curve.miss_ratio_at(16) < 0.05);
    }

    #[test]
    fn empty_curve_is_all_misses() {
        let mrc = MrcEstimator::new();
        let curve = mrc.curve();
        assert_eq!(curve.miss_ratio_at(0), 1.0);
        assert_eq!(curve.miss_ratio_at(1 << 40), 1.0);
    }

    #[test]
    fn sampled_estimate_tracks_full_estimate() {
        // Zipf-ish mixture: hot 64 blocks + occasional cold sweep.
        let mut full = MrcEstimator::with_sample_rate(1);
        let mut sampled = MrcEstimator::with_sample_rate(8);
        let mut rng = ddc_sim::SimRng::new(11);
        for _ in 0..200_000 {
            let b = if rng.chance(0.8) {
                rng.range_u64(0, 64)
            } else {
                rng.range_u64(0, 8192)
            };
            full.record(addr(b));
            sampled.record(addr(b));
        }
        let cf = full.curve();
        let cs = sampled.curve();
        for size in [32, 128, 1024, 8192] {
            let err = (cf.miss_ratio_at(size) - cs.miss_ratio_at(size)).abs();
            assert!(
                err < 0.12,
                "sampled curve within 12% of full at size {size} (err {err:.3})"
            );
        }
    }

    #[test]
    fn monotone_nonincreasing_curve() {
        let mut mrc = MrcEstimator::with_sample_rate(1);
        let mut rng = ddc_sim::SimRng::new(3);
        for _ in 0..50_000 {
            mrc.record(addr(rng.range_u64(0, 4096)));
        }
        let curve = mrc.curve();
        let mut prev = 1.0f64;
        for size in [4, 16, 64, 256, 1024, 4096, 16384] {
            let r = curve.miss_ratio_at(size);
            assert!(r <= prev + 1e-9, "miss ratio must not increase with size");
            prev = r;
        }
    }

    #[test]
    #[should_panic(expected = "sample rate must be positive")]
    fn zero_rate_rejected() {
        let _ = MrcEstimator::with_sample_rate(0);
    }
}
