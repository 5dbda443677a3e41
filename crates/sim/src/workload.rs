//! Synthetic workloads: Zipf-distributed content popularity.
//!
//! Real purchase traces are proprietary; per DESIGN.md §2 the evaluation
//! questions depend only on operation *distributions*, which a seeded Zipf
//! sampler reproduces.

use rand::Rng;

/// Zipf sampler over ranks `0..n` with exponent `s` (s=0 is uniform;
/// s≈1 matches media-popularity folklore).
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the CDF for `n` items.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf over empty catalog");
        let mut weights = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            let w = 1.0 / (rank as f64).powf(s);
            total += w;
            weights.push(total);
        }
        for w in &mut weights {
            *w /= total;
        }
        Zipf { cdf: weights }
    }

    /// Samples a rank in `0..n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        match self.cdf.binary_search_by(|p| p.partial_cmp(&u).unwrap()) {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Never empty (constructor panics on n=0).
    pub fn is_empty(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zipf_skews_to_low_ranks() {
        let mut rng = StdRng::seed_from_u64(1);
        let z = Zipf::new(100, 1.0);
        let mut counts = vec![0usize; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        // Rank 0 must dominate rank 50 heavily under s=1.
        assert!(
            counts[0] > counts[50] * 5,
            "{} vs {}",
            counts[0],
            counts[50]
        );
        // Everything in range.
        assert_eq!(counts.iter().sum::<usize>(), 20_000);
    }

    #[test]
    fn zipf_s0_is_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(2);
        let z = Zipf::new(10, 0.0);
        let mut counts = vec![0usize; 10];
        for _ in 0..50_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 5000.0).abs() < 600.0, "not uniform: {counts:?}");
        }
    }

    #[test]
    fn zipf_single_item() {
        let mut rng = StdRng::seed_from_u64(3);
        let z = Zipf::new(1, 1.2);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut rng), 0);
        }
    }
}
