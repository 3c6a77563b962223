//! Zipf-distributed sampling over ranks `0..n`, used for pair popularity
//! (data-center flow counts per host pair are heavily skewed: the paper's
//! real trace has ~90% of flows on ~10% of communicating pairs).

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A Zipf(α) sampler over `n` ranks with a precomputed inverse-CDF table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds a sampler over ranks `0..n` with exponent `alpha`.
    ///
    /// Rank 0 is the most popular. `alpha = 0` degenerates to uniform.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `alpha` is negative/non-finite.
    pub(crate) fn new(n: usize, alpha: f64) -> Self {
        assert!(n > 0, "zipf over zero ranks");
        assert!(alpha.is_finite() && alpha >= 0.0, "invalid alpha {alpha}");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(alpha);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Samples a rank in `0..n`.
    pub(crate) fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// Probability mass of the given rank.
    #[cfg(test)]
    fn pmf(&self, rank: usize) -> f64 {
        if rank == 0 {
            self.cdf[0]
        } else {
            self.cdf[rank] - self.cdf[rank - 1]
        }
    }

    /// Fraction of total mass held by the top `k` ranks.
    pub(crate) fn top_k_mass(&self, k: usize) -> f64 {
        if k == 0 {
            0.0
        } else {
            self.cdf[(k - 1).min(self.cdf.len() - 1)]
        }
    }

    /// Finds the exponent `alpha` such that the top `top_frac` of ranks
    /// carry approximately `mass_frac` of the mass (bisection search).
    ///
    /// This is how the "90% of flows from 10% of pairs" constraint is
    /// turned into a concrete sampler.
    ///
    /// # Panics
    ///
    /// Panics unless both fractions are in `(0, 1)`.
    pub(crate) fn fit_alpha(n: usize, top_frac: f64, mass_frac: f64) -> f64 {
        assert!((0.0..1.0).contains(&top_frac) && top_frac > 0.0);
        assert!((0.0..1.0).contains(&mass_frac) && mass_frac > 0.0);
        let k = ((n as f64 * top_frac).round() as usize).max(1);
        let (mut lo, mut hi) = (0.0f64, 4.0f64);
        for _ in 0..60 {
            let mid = (lo + hi) / 2.0;
            let z = Zipf::new(n, mid);
            if z.top_k_mass(k) < mass_frac {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        (lo + hi) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_when_alpha_zero() {
        let z = Zipf::new(4, 0.0);
        for rank in 0..4 {
            assert!((z.pmf(rank) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn skewed_mass_ordering() {
        let z = Zipf::new(100, 1.2);
        assert!(z.pmf(0) > z.pmf(1));
        assert!(z.pmf(1) > z.pmf(50));
        assert!(z.top_k_mass(10) > 0.4);
        assert!((z.top_k_mass(100) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sampling_matches_pmf() {
        let z = Zipf::new(10, 1.0);
        let mut rng = StdRng::seed_from_u64(5);
        let mut counts = [0u32; 10];
        let trials = 100_000;
        for _ in 0..trials {
            counts[z.sample(&mut rng)] += 1;
        }
        for (rank, &count) in counts.iter().enumerate() {
            let emp = count as f64 / trials as f64;
            let theory = z.pmf(rank);
            assert!(
                (emp - theory).abs() < 0.01,
                "rank {rank}: empirical {emp} vs {theory}"
            );
        }
    }

    #[test]
    fn fit_alpha_hits_the_target() {
        // The paper's constraint: top 10% of pairs carry 90% of flows.
        let n = 10_000;
        let alpha = Zipf::fit_alpha(n, 0.10, 0.90);
        let z = Zipf::new(n, alpha);
        let mass = z.top_k_mass(1000);
        assert!((mass - 0.90).abs() < 0.01, "top-10% mass {mass}");
    }

    #[test]
    fn single_rank() {
        let z = Zipf::new(1, 2.0);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(z.sample(&mut rng), 0);
        assert_eq!(z.pmf(0), 1.0);
    }

    #[test]
    #[should_panic(expected = "zero ranks")]
    fn zero_ranks_panics() {
        let _ = Zipf::new(0, 1.0);
    }
}
