//! Zipfian hot-spot access model for internet-scale workloads.
//!
//! The paper's synthetic model skews access with contiguous sub-partitions
//! (the generalized b/c rule); traffic from millions of users is better
//! described by a Zipfian popularity curve over a *hot set*: a fraction
//! `hot_fraction` of the items receives all but `hot_fraction` of the
//! accesses, Zipf-distributed inside the hot set, with the cold remainder hit
//! uniformly.  `hot_fraction = 0.2, theta = 0.9` therefore means "80 % of the
//! traffic hammers a Zipf-skewed fifth of the data".
//!
//! The default parameters (`theta = 0`, `hot_fraction = 1`) are **inactive**:
//! generators must not change their draw sequences at all, so every existing
//! seed stays byte-identical.

use simkernel::dist::Zipf;
use simkernel::SimRng;

/// Hot-spot skew parameters, carried on the simulation config and applied to
/// workload generators before the run starts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HotSpotParams {
    /// Zipf skew inside the hot set, in `[0, 1)` (0 = uniform hot set).
    pub theta: f64,
    /// Fraction of the items forming the hot set, in `(0, 1]`.  `1.0` spreads
    /// the Zipf curve over the whole partition.
    pub hot_fraction: f64,
}

impl Default for HotSpotParams {
    fn default() -> Self {
        Self {
            theta: 0.0,
            hot_fraction: 1.0,
        }
    }
}

impl HotSpotParams {
    /// Convenience constructor.
    pub fn new(theta: f64, hot_fraction: f64) -> Self {
        Self {
            theta,
            hot_fraction,
        }
    }

    /// True when the parameters actually skew anything.  Inactive parameters
    /// must leave generators untouched (draw-sequence identical).
    pub fn is_active(&self) -> bool {
        self.theta > 0.0 || self.hot_fraction < 1.0
    }

    /// Validates ranges; mirrored by `SimulationConfig::validate`.
    pub fn validate(&self) -> Result<(), String> {
        if !self.theta.is_finite() || !(0.0..1.0).contains(&self.theta) {
            return Err(format!(
                "hot-spot theta must be in [0, 1), got {}",
                self.theta
            ));
        }
        if !(self.hot_fraction.is_finite() && self.hot_fraction > 0.0 && self.hot_fraction <= 1.0) {
            return Err(format!(
                "hot-spot fraction must be in (0, 1], got {}",
                self.hot_fraction
            ));
        }
        Ok(())
    }
}

/// A sampler over `0..n` implementing the hot-spot model: with probability
/// `1 - hot_fraction` the access goes to the hot set (the first
/// `hot_fraction · n` items, Zipf-ranked), otherwise uniformly to the cold
/// remainder.  With `hot_fraction = 1` it degenerates to plain Zipf over the
/// whole range.
#[derive(Debug, Clone)]
pub struct HotSpotSampler {
    n: u64,
    hot_items: u64,
    hot_access_prob: f64,
    zipf: Zipf,
}

impl HotSpotSampler {
    /// Builds a sampler over `0..n` items.  `params` must be valid.
    pub fn new(n: u64, params: HotSpotParams) -> Self {
        assert!(n >= 1, "hot-spot sampler needs at least one item");
        params.validate().expect("invalid hot-spot parameters");
        let hot_items = ((params.hot_fraction * n as f64).round() as u64).clamp(1, n);
        let hot_access_prob = if hot_items >= n {
            1.0
        } else {
            1.0 - params.hot_fraction
        };
        Self {
            n,
            hot_items,
            hot_access_prob,
            zipf: Zipf::new(hot_items, params.theta),
        }
    }

    /// Samples an item index in `0..n` (0 is the most popular item).
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        // `chance(1.0)` returns true without drawing, so the degenerate
        // whole-range case costs no extra random number.
        if rng.chance(self.hot_access_prob) {
            self.zipf.sample(rng)
        } else {
            self.hot_items + rng.below(self.n - self.hot_items)
        }
    }

    /// Number of items in the hot set.
    pub fn hot_items(&self) -> u64 {
        self.hot_items
    }

    /// Total number of items.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Always false (the sampler covers at least one item).
    pub fn is_empty(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_params_are_inactive_and_valid() {
        let p = HotSpotParams::default();
        assert!(!p.is_active());
        assert!(p.validate().is_ok());
        assert!(HotSpotParams::new(0.5, 0.2).is_active());
        assert!(HotSpotParams::new(0.0, 0.5).is_active());
    }

    #[test]
    fn invalid_ranges_are_rejected() {
        assert!(HotSpotParams::new(1.0, 0.5).validate().is_err());
        assert!(HotSpotParams::new(-0.1, 0.5).validate().is_err());
        assert!(HotSpotParams::new(f64::NAN, 0.5).validate().is_err());
        assert!(HotSpotParams::new(0.5, 0.0).validate().is_err());
        assert!(HotSpotParams::new(0.5, 1.5).validate().is_err());
        assert!(HotSpotParams::new(0.5, f64::NAN).validate().is_err());
    }

    #[test]
    fn sampler_concentrates_traffic_on_hot_set() {
        let n = 100_000;
        let s = HotSpotSampler::new(n, HotSpotParams::new(0.9, 0.1));
        assert_eq!(s.hot_items(), 10_000);
        let mut rng = SimRng::seed_from(31);
        let draws = 50_000;
        let hot = (0..draws)
            .filter(|_| s.sample(&mut rng) < s.hot_items())
            .count() as f64
            / draws as f64;
        // 90% of accesses should land in the hottest 10% of items.
        assert!((hot - 0.9).abs() < 0.01, "hot share {hot}");
    }

    #[test]
    fn sampler_is_zipf_skewed_inside_hot_set() {
        let s = HotSpotSampler::new(100_000, HotSpotParams::new(0.9, 0.1));
        let mut rng = SimRng::seed_from(32);
        let draws = 50_000;
        let top100 = (0..draws).filter(|_| s.sample(&mut rng) < 100).count() as f64 / draws as f64;
        // Zipf(theta=0.9) over 10k items puts far more than 1% of the hot
        // traffic on the 100 hottest items.
        assert!(top100 > 0.25, "top-100 share {top100}");
    }

    #[test]
    fn whole_range_fraction_degenerates_to_zipf() {
        let s = HotSpotSampler::new(1000, HotSpotParams::new(0.5, 1.0));
        let z = Zipf::new(1000, 0.5);
        let mut ra = SimRng::seed_from(33);
        let mut rb = SimRng::seed_from(33);
        for _ in 0..2000 {
            assert_eq!(s.sample(&mut ra), z.sample(&mut rb));
        }
    }

    #[test]
    fn sampler_stays_in_range() {
        let s = HotSpotSampler::new(77, HotSpotParams::new(0.3, 0.4));
        let mut rng = SimRng::seed_from(34);
        for _ in 0..10_000 {
            assert!(s.sample(&mut rng) < 77);
        }
        assert_eq!(s.len(), 77);
        assert!(!s.is_empty());
    }

    #[test]
    fn builds_and_samples_beyond_direct_summation() {
        // A 2^40-item range with a 2^38-item hot set: the Zipf normaliser is
        // O(1) to build, so this is as cheap as a ten-item range.
        let n = 1u64 << 40;
        let s = HotSpotSampler::new(n, HotSpotParams::new(0.9, 0.25));
        assert_eq!(s.hot_items(), 1 << 38);
        let mut rng = SimRng::seed_from(36);
        let mut hot = 0;
        for _ in 0..10_000 {
            let x = s.sample(&mut rng);
            assert!(x < n);
            hot += usize::from(x < s.hot_items());
        }
        assert!((7_300..7_700).contains(&hot), "{hot} hot draws");
    }

    #[test]
    fn tiny_partitions_are_safe() {
        let s = HotSpotSampler::new(1, HotSpotParams::new(0.9, 0.1));
        let mut rng = SimRng::seed_from(35);
        for _ in 0..100 {
            assert_eq!(s.sample(&mut rng), 0);
        }
    }
}
