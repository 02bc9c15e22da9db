//! Draw-for-draw equivalence of `Zipf` with the sampler it replaced, whose
//! normaliser was a direct O(n) sum.
//!
//! Above 4096 elements the closed-form normaliser differs from the direct
//! sum in its last bits, where the direct sum carries its own rounding error
//! (about 2·10^-14 relative at 10^7 terms).  A draw moves only when that
//! difference carries `n·v^α` across an integer: none of 6·10^6 draws at
//! 10^5 items, one of 6·10^6 at 10^7.  These tests pin a million
//! seeded draws at both sizes.  They live here rather than in the crate's
//! unit tests because the 10^7-term reference sum is too slow for the
//! interpreted (Miri) run of those.

use simkernel::dist::Zipf;
use simkernel::SimRng;

/// The previous `Zipf`: the same generator with ζ(n, θ) summed directly.
struct DirectSumZipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zeta_n: f64,
    eta: f64,
}

impl DirectSumZipf {
    fn zeta(n: u64, theta: f64) -> f64 {
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    fn new(n: u64, theta: f64) -> Self {
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

    fn sample(&self, rng: &mut SimRng) -> u64 {
        if self.n == 1 {
            return 0;
        }
        let u = rng.unit();
        let uz = u * self.zeta_n;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let v = ((self.eta * u) - self.eta + 1.0).max(1e-12);
        let k = (self.n as f64 * v.powf(self.alpha)) as u64;
        k.min(self.n - 1)
    }
}

fn assert_same_draws(n: u64, theta: f64, seed: u64, draws: usize) {
    let new = Zipf::new(n, theta);
    let old = DirectSumZipf::new(n, theta);
    let mut rng_new = SimRng::seed_from(seed);
    let mut rng_old = SimRng::seed_from(seed);
    for i in 0..draws {
        let (a, b) = (new.sample(&mut rng_new), old.sample(&mut rng_old));
        assert_eq!(a, b, "n={n} theta={theta}: draw {i} differs");
    }
}

#[test]
fn draws_match_direct_sum_sampler_at_1e5_items() {
    // The fig10.x golden's hot set.
    assert_same_draws(100_000, 0.9, 11, 1_000_000);
}

#[test]
fn draws_match_direct_sum_sampler_at_1e7_items() {
    // The hot 20 % of Debit-Credit's 50M accounts.
    assert_same_draws(10_000_000, 0.9, 12, 1_000_000);
}
