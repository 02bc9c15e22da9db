//! Reusable probability distributions.
//!
//! TPSIM's workload model needs a handful of distributions: exponential
//! service times and inter-arrival times, uniform selection within a
//! sub-partition, and general discrete distributions (the relative reference
//! matrix and the b/c-rule sub-partition weights).  Everything samples from a
//! [`SimRng`] so runs remain deterministic.

use crate::rng::SimRng;

/// A distribution that can produce an `f64` sample from the simulation RNG.
pub trait Draw {
    /// Draws one sample.
    fn draw(&self, rng: &mut SimRng) -> f64;

    /// The distribution's mean, if defined.
    fn mean(&self) -> f64;
}

/// Exponential distribution with a given mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    mean: f64,
}

impl Exponential {
    /// Creates an exponential distribution with `mean > 0`.
    pub fn new(mean: f64) -> Self {
        assert!(mean > 0.0, "exponential mean must be positive, got {mean}");
        Self { mean }
    }
}

impl Draw for Exponential {
    #[inline]
    fn draw(&self, rng: &mut SimRng) -> f64 {
        rng.exponential(self.mean)
    }

    #[inline]
    fn mean(&self) -> f64 {
        self.mean
    }
}

/// Either a fixed constant or an exponential around a mean.
///
/// Transaction sizes and CPU bursts in the paper can be "fixed or variable; in
/// the latter case the actual number ... is determined according to an
/// exponential distribution over the specified mean" (§3.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FixedOrExp {
    /// Always returns the same value.
    Fixed(f64),
    /// Exponentially distributed around the mean.
    Exp(f64),
}

impl Draw for FixedOrExp {
    #[inline]
    fn draw(&self, rng: &mut SimRng) -> f64 {
        match *self {
            FixedOrExp::Fixed(v) => v,
            FixedOrExp::Exp(mean) => rng.exponential(mean),
        }
    }

    #[inline]
    fn mean(&self) -> f64 {
        match *self {
            FixedOrExp::Fixed(v) | FixedOrExp::Exp(v) => v,
        }
    }
}

/// Continuous uniform distribution over `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UniformRange {
    lo: f64,
    hi: f64,
}

impl UniformRange {
    /// Creates a uniform distribution over `[lo, hi)` with `hi >= lo`.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(hi >= lo, "invalid uniform range [{lo}, {hi})");
        Self { lo, hi }
    }
}

impl Draw for UniformRange {
    #[inline]
    fn draw(&self, rng: &mut SimRng) -> f64 {
        rng.range_f64(self.lo, self.hi)
    }

    #[inline]
    fn mean(&self) -> f64 {
        (self.lo + self.hi) / 2.0
    }
}

/// A discrete distribution over `0..n` built from arbitrary non-negative
/// weights, sampled by binary search over the cumulative weights.
///
/// Used for the relative reference matrix rows and for sub-partition
/// selection, where the same distribution is sampled millions of times.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscreteDist {
    cumulative: Vec<f64>,
    total: f64,
}

impl DiscreteDist {
    /// Builds the distribution.  Returns `None` if every weight is zero or the
    /// slice is empty.
    pub fn new(weights: &[f64]) -> Option<Self> {
        if weights.is_empty() {
            return None;
        }
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut total = 0.0;
        for &w in weights {
            let w = if w.is_finite() && w > 0.0 { w } else { 0.0 };
            total += w;
            cumulative.push(total);
        }
        if total <= 0.0 {
            return None;
        }
        Some(Self { cumulative, total })
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// True if there are no categories (never constructed; kept for API symmetry).
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// Samples a category index.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let x = rng.unit() * self.total;
        // Binary search for the first cumulative weight > x.  total_cmp is
        // identical to partial_cmp on the finite weights stored here, but
        // cannot silently collapse the ordering if a NaN ever slips in.
        match self.cumulative.binary_search_by(|c| c.total_cmp(&x)) {
            Ok(i) => (i + 1).min(self.cumulative.len() - 1),
            Err(i) => i.min(self.cumulative.len() - 1),
        }
    }

    /// Probability mass of category `i`.
    pub fn probability(&self, i: usize) -> f64 {
        let prev = if i == 0 { 0.0 } else { self.cumulative[i - 1] };
        (self.cumulative[i] - prev) / self.total
    }
}

/// Terms of ζ(n, θ) summed directly before [`Zipf`]'s closed-form tail takes
/// over.  Every normaliser over at most this many items is the plain direct
/// sum, bit for bit.
const ZETA_EXACT_TERMS: u64 = 4096;

/// Zipf-like distribution over `0..n` with skew parameter `theta` in `[0, 1)`.
///
/// The generator of Gray et al., "Quickly Generating Billion-Record Synthetic
/// Databases" (SIGMOD '94).  Used by the synthetic trace generator (page
/// popularity within a file) and by the hot-spot sampler (ranking inside the
/// hot set); the paper's own synthetic model uses sub-partitions / the b-c
/// rule instead.  `theta = 0` is uniform; values around 0.8–0.99 give the
/// heavy skew typical of OLTP traces.  Building and sampling both take O(1)
/// time in `n`.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zeta_n: f64,
    eta: f64,
}

impl Zipf {
    /// Creates a Zipf distribution over `0..n` (n >= 1) with skew `theta` in `[0, 1)`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n >= 1, "Zipf needs at least one element");
        assert!((0.0..1.0).contains(&theta), "theta must be in [0,1)");
        let zeta_n = Self::zeta(n, theta);
        let zeta_theta = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta_theta / zeta_n);
        Self {
            n,
            theta,
            alpha,
            zeta_n,
            eta,
        }
    }

    /// The normaliser ζ(n, θ) = Σ_{i=1..n} i^-θ in O(1) time.
    ///
    /// The first [`ZETA_EXACT_TERMS`] terms are summed directly.  The rest
    /// come from the Euler–Maclaurin formula with f(x) = x^-θ over [K, n]:
    /// the integral, plus (f(n) − f(K))/2 (the sum runs over K+1..=n), plus
    /// the B₂ and B₄ derivative corrections.  The first omitted term,
    /// B₆/6!·f⁽⁵⁾(K), is below 10^-20, far under one ulp of the head, so the
    /// tail adds no error beyond the rounding of the head's direct sum.
    fn zeta(n: u64, theta: f64) -> f64 {
        let head: f64 = (1..=n.min(ZETA_EXACT_TERMS))
            .map(|i| 1.0 / (i as f64).powf(theta))
            .sum();
        if n <= ZETA_EXACT_TERMS {
            return head;
        }
        let (k, n) = (ZETA_EXACT_TERMS as f64, n as f64);
        // ∫_K^n x^-θ dx = K^(1-θ)·((n/K)^(1-θ) − 1)/(1−θ); expm1 keeps it exact
        // as θ → 1, where the difference would otherwise cancel.  At θ = 0 it
        // is n − K, taken exactly so the uniform normaliser stays exactly n.
        let s = 1.0 - theta;
        let integral = if theta == 0.0 {
            n - k
        } else {
            k.powf(s) * (s * (n / k).ln()).exp_m1() / s
        };
        let f = |x: f64| x.powf(-theta);
        let f1 = |x: f64| -theta * x.powf(-theta - 1.0);
        let f3 = |x: f64| -theta * (theta + 1.0) * (theta + 2.0) * x.powf(-theta - 3.0);
        let tail =
            integral + (f(n) - f(k)) / 2.0 + (f1(n) - f1(k)) / 12.0 - (f3(n) - f3(k)) / 720.0;
        head + tail
    }

    /// Samples a value in `0..n` (0 is the most popular element).
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        if self.n == 1 {
            return 0;
        }
        let u = rng.unit();
        let uz = u * self.zeta_n;
        if uz < 1.0 {
            return 0;
        }
        // `1 + 2^-θ` is not cached in a field: that was faster in an isolated
        // sampling loop but slower end to end in the trace generator.
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let v = ((self.eta * u) - self.eta + 1.0).max(1e-12);
        let k = (self.n as f64 * v.powf(self.alpha)) as u64;
        k.min(self.n - 1)
    }

    /// Number of elements.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Always false (a Zipf distribution has at least one element).
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// A cyclic piecewise-constant arrival-rate function.
///
/// Segments are `(duration_ms, rate_per_second)` pairs; the pattern repeats
/// forever.  This is the substrate for time-varying (non-homogeneous) Poisson
/// arrivals: the engine draws a unit exponential `e` and asks for the earliest
/// time `T` with `∫ rate(s)/1000 ds = e` past the current clock — the standard
/// inversion method, exact for piecewise-constant rates.
#[derive(Debug, Clone)]
pub struct PiecewiseRate {
    /// `(duration_ms, rate_per_second)` per segment.
    segments: Vec<(f64, f64)>,
    /// Sum of segment durations (one cycle, ms).
    cycle_ms: f64,
    /// Expected events per cycle (`Σ duration/1000 · rate`).
    events_per_cycle: f64,
}

impl PiecewiseRate {
    /// Builds a cyclic rate function.  Every duration must be positive and
    /// finite, every rate non-negative and finite, and at least one segment
    /// must have a positive rate (otherwise no arrival ever happens and the
    /// inversion would not terminate).
    pub fn new(segments: Vec<(f64, f64)>) -> Self {
        assert!(!segments.is_empty(), "rate function needs segments");
        for &(dur, rate) in &segments {
            assert!(
                dur.is_finite() && dur > 0.0,
                "segment durations must be positive and finite"
            );
            assert!(
                rate.is_finite() && rate >= 0.0,
                "segment rates must be non-negative and finite"
            );
        }
        let cycle_ms: f64 = segments.iter().map(|s| s.0).sum();
        let events_per_cycle: f64 = segments.iter().map(|s| s.0 / 1000.0 * s.1).sum();
        assert!(
            events_per_cycle > 0.0,
            "at least one segment must have a positive rate"
        );
        Self {
            segments,
            cycle_ms,
            events_per_cycle,
        }
    }

    /// Length of one cycle in milliseconds.
    pub fn cycle_ms(&self) -> f64 {
        self.cycle_ms
    }

    /// Instantaneous rate (events per second) at time `t_ms`.
    pub fn rate_at(&self, t_ms: f64) -> f64 {
        let mut phase = (t_ms % self.cycle_ms + self.cycle_ms) % self.cycle_ms;
        for &(dur, rate) in &self.segments {
            if phase < dur {
                return rate;
            }
            phase -= dur;
        }
        // Only reachable through float round-off at the cycle boundary.
        self.segments[self.segments.len() - 1].1
    }

    /// Expected number of events in `[0, t_ms]`.
    pub fn cumulative(&self, t_ms: f64) -> f64 {
        debug_assert!(t_ms >= 0.0);
        let cycles = (t_ms / self.cycle_ms).floor();
        let mut phase = t_ms - cycles * self.cycle_ms;
        let mut acc = cycles * self.events_per_cycle;
        for &(dur, rate) in &self.segments {
            if phase <= 0.0 {
                break;
            }
            acc += phase.min(dur) / 1000.0 * rate;
            phase -= dur;
        }
        acc
    }

    /// Expected number of events in `[t0_ms, t1_ms]`.
    pub fn expected_events(&self, t0_ms: f64, t1_ms: f64) -> f64 {
        (self.cumulative(t1_ms) - self.cumulative(t0_ms)).max(0.0)
    }

    /// Earliest time `T` with `cumulative(T) >= target` — the inverse of the
    /// cumulative expected-event function.  Zero-rate segments are skipped
    /// (their integral is flat, so no arrival can land inside them).
    fn invert(&self, target: f64) -> f64 {
        let cycles = (target / self.events_per_cycle).floor();
        let mut rem = target - cycles * self.events_per_cycle;
        let mut t = cycles * self.cycle_ms;
        for &(dur, rate) in &self.segments {
            let cap = dur / 1000.0 * rate;
            if rate > 0.0 && rem <= cap {
                return t + rem / (rate / 1000.0);
            }
            rem -= cap;
            t += dur;
        }
        // Float round-off pushed `rem` past the cycle; land on the boundary
        // (the next call continues from there).
        t
    }

    /// Absolute time of the next arrival after `t_ms`, given a fresh unit
    /// exponential draw `e > 0` (non-homogeneous Poisson by inversion).
    pub fn next_arrival_after(&self, t_ms: f64, e: f64) -> f64 {
        debug_assert!(e > 0.0);
        self.invert(self.cumulative(t_ms) + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponential_draw_mean() {
        let d = Exponential::new(2.0);
        let mut rng = SimRng::seed_from(1);
        let n = 100_000;
        let avg: f64 = (0..n).map(|_| d.draw(&mut rng)).sum::<f64>() / n as f64;
        assert!((avg - 2.0).abs() < 0.05, "avg {avg}");
        assert_eq!(d.mean(), 2.0);
    }

    #[test]
    #[should_panic]
    fn exponential_rejects_nonpositive_mean() {
        let _ = Exponential::new(0.0);
    }

    #[test]
    fn fixed_or_exp_fixed_is_constant() {
        let d = FixedOrExp::Fixed(4.0);
        let mut rng = SimRng::seed_from(1);
        for _ in 0..10 {
            assert_eq!(d.draw(&mut rng), 4.0);
        }
        assert_eq!(d.mean(), 4.0);
    }

    #[test]
    fn uniform_range_bounds_and_mean() {
        let d = UniformRange::new(1.0, 3.0);
        let mut rng = SimRng::seed_from(1);
        for _ in 0..1000 {
            let x = d.draw(&mut rng);
            assert!((1.0..3.0).contains(&x));
        }
        assert_eq!(d.mean(), 2.0);
    }

    #[test]
    fn discrete_dist_matches_weights() {
        let d = DiscreteDist::new(&[1.0, 3.0, 6.0]).unwrap();
        assert_eq!(d.len(), 3);
        assert!((d.probability(0) - 0.1).abs() < 1e-12);
        assert!((d.probability(2) - 0.6).abs() < 1e-12);
        let mut rng = SimRng::seed_from(77);
        let mut counts = [0usize; 3];
        for _ in 0..100_000 {
            counts[d.sample(&mut rng)] += 1;
        }
        let f2 = counts[2] as f64 / 100_000.0;
        assert!((f2 - 0.6).abs() < 0.01, "f2 {f2}");
    }

    #[test]
    fn discrete_dist_rejects_degenerate_input() {
        assert!(DiscreteDist::new(&[]).is_none());
        assert!(DiscreteDist::new(&[0.0, 0.0]).is_none());
    }

    #[test]
    fn zipf_is_skewed_toward_small_indices() {
        let z = Zipf::new(10_000, 0.9);
        let mut rng = SimRng::seed_from(3);
        let n = 100_000;
        let in_first_percent = (0..n).filter(|_| z.sample(&mut rng) < 100).count();
        // With theta=0.9 far more than 1% of accesses hit the first 1% of items.
        assert!(
            in_first_percent as f64 / n as f64 > 0.3,
            "only {in_first_percent} hits in hottest 1%"
        );
    }

    #[test]
    fn zipf_theta_zero_is_roughly_uniform() {
        let z = Zipf::new(1000, 0.0);
        let mut rng = SimRng::seed_from(3);
        let n = 100_000;
        let in_first_half = (0..n).filter(|_| z.sample(&mut rng) < 500).count();
        let frac = in_first_half as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.05, "frac {frac}");
    }

    #[test]
    fn zipf_stays_in_range() {
        let z = Zipf::new(50, 0.5);
        let mut rng = SimRng::seed_from(3);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 50);
        }
        assert_eq!(z.len(), 50);
        assert!(!z.is_empty());
    }

    /// The normaliser as it was computed before the closed-form tail: one
    /// `powf` per element, summed in order.
    fn direct_zeta(n: u64, theta: f64) -> f64 {
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    /// ζ(n, θ) by Neumaier-compensated summation, smallest term first.
    fn compensated_zeta(n: u64, theta: f64) -> f64 {
        let (mut sum, mut carry) = (0.0f64, 0.0f64);
        for i in (1..=n).rev() {
            let term = 1.0 / (i as f64).powf(theta);
            let t = sum + term;
            carry += if sum.abs() >= term.abs() {
                (sum - t) + term
            } else {
                (term - t) + sum
            };
            sum = t;
        }
        sum + carry
    }

    const THETAS: [f64; 6] = [0.0, 0.5, 0.9, 0.95, 0.99, 0.999999];

    #[test]
    fn zeta_up_to_the_exact_terms_is_the_direct_sum_bit_for_bit() {
        let k = ZETA_EXACT_TERMS;
        for theta in THETAS {
            for n in [1, 2, 3, 100, k - 1, k] {
                assert_eq!(
                    Zipf::zeta(n, theta).to_bits(),
                    direct_zeta(n, theta).to_bits(),
                    "n={n} theta={theta}"
                );
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "10^5-term reference sums are too slow to interpret")]
    fn zeta_matches_compensated_sum() {
        let k = ZETA_EXACT_TERMS;
        for theta in THETAS {
            for n in [1, 2, k - 1, k, k + 1, 100_000] {
                let exact = compensated_zeta(n, theta);
                let rel = (Zipf::zeta(n, theta) - exact).abs() / exact;
                assert!(rel <= 1e-13, "n={n} theta={theta}: relative error {rel:e}");
            }
        }
    }

    #[test]
    fn zeta_is_exactly_n_when_uniform() {
        for n in [ZETA_EXACT_TERMS + 1, 10_000_000, 1 << 40] {
            assert_eq!(Zipf::zeta(n, 0.0), n as f64);
        }
    }

    #[test]
    fn zipf_builds_and_samples_beyond_direct_summation() {
        // 2^40 elements: a direct sum would take hours; the closed form is O(1).
        let n = 1u64 << 40;
        let z = Zipf::new(n, 0.9);
        let mut rng = SimRng::seed_from(5);
        let mut hottest = 0;
        for _ in 0..10_000 {
            let x = z.sample(&mut rng);
            assert!(x < n);
            hottest += usize::from(x == 0);
        }
        // P(0) = 1/ζ(2^40, 0.9) ≈ 0.66 %, so about 66 of 10^4 draws.
        assert!((40..100).contains(&hottest), "{hottest} draws of item 0");
    }

    #[test]
    fn piecewise_rate_lookup_and_integral() {
        // 1 s at 100/s, 1 s at 0/s, 2 s at 50/s, cyclic.
        let p = PiecewiseRate::new(vec![(1000.0, 100.0), (1000.0, 0.0), (2000.0, 50.0)]);
        assert_eq!(p.cycle_ms(), 4000.0);
        assert_eq!(p.rate_at(500.0), 100.0);
        assert_eq!(p.rate_at(1500.0), 0.0);
        assert_eq!(p.rate_at(3999.0), 50.0);
        assert_eq!(p.rate_at(4500.0), 100.0); // wraps
        assert!((p.cumulative(1000.0) - 100.0).abs() < 1e-9);
        assert!((p.cumulative(2000.0) - 100.0).abs() < 1e-9);
        assert!((p.cumulative(4000.0) - 200.0).abs() < 1e-9);
        assert!((p.expected_events(500.0, 4500.0) - 200.0).abs() < 1e-9);
    }

    #[test]
    fn piecewise_inversion_round_trips() {
        let p = PiecewiseRate::new(vec![(300.0, 20.0), (700.0, 180.0), (500.0, 5.0)]);
        for t in [0.0, 10.0, 299.0, 300.0, 999.0, 1400.0, 7321.5] {
            for e in [0.001, 0.5, 3.0, 40.0] {
                let next = p.next_arrival_after(t, e);
                assert!(next > t, "arrival must advance: t={t} e={e} next={next}");
                let integral = p.expected_events(t, next);
                assert!(
                    (integral - e).abs() < 1e-6,
                    "t={t} e={e}: integral {integral}"
                );
            }
        }
    }

    #[test]
    fn piecewise_arrivals_skip_zero_rate_segments() {
        let p = PiecewiseRate::new(vec![(100.0, 10.0), (900.0, 0.0)]);
        // An arrival requested from inside the dead zone lands in the next
        // live segment.
        let next = p.next_arrival_after(150.0, 0.25);
        assert!(
            (1000.0..1100.0).contains(&next),
            "next arrival {next} should fall in the second cycle's live window"
        );
    }

    #[test]
    fn piecewise_empirical_rate_tracks_schedule() {
        // Burst: 10× rate for the first 10% of each 1 s cycle.
        let p = PiecewiseRate::new(vec![(100.0, 1000.0), (900.0, 100.0)]);
        let mut rng = SimRng::seed_from(21);
        let mut t = 0.0;
        let mut in_burst = 0u64;
        let mut total = 0u64;
        while t < 200_000.0 {
            t = p.next_arrival_after(t, rng.exponential(1.0));
            total += 1;
            if t % 1000.0 < 100.0 {
                in_burst += 1;
            }
        }
        // Expected share: 100 per cycle in the burst, 90 outside → 100/190.
        let share = in_burst as f64 / total as f64;
        assert!((share - 100.0 / 190.0).abs() < 0.02, "burst share {share}");
        // Expected total: 190 per second over 200 s.
        assert!((total as f64 - 38_000.0).abs() < 1500.0, "total {total}");
    }

    #[test]
    #[should_panic]
    fn piecewise_rejects_zero_duration_segment() {
        let _ = PiecewiseRate::new(vec![(0.0, 100.0), (1000.0, 50.0)]);
    }

    #[test]
    #[should_panic]
    fn piecewise_rejects_all_zero_rates() {
        let _ = PiecewiseRate::new(vec![(1000.0, 0.0)]);
    }
}
