//! Deterministic randomness for experiments.
//!
//! Every stochastic component takes a [`SimRng`] seeded from the experiment
//! harness, so any table row can be regenerated bit-for-bit. The distribution
//! samplers the workload generator needs (exponential, Poisson, Zipf,
//! bounded Pareto, log-normal) are implemented here directly against the
//! `rand` core API to keep the dependency set to the approved list.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded pseudo-random source with the distribution samplers used across
/// the reproduction.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: StdRng,
}

impl SimRng {
    /// Construct from a 64-bit seed. Identical seeds yield identical streams.
    pub fn seed_from_u64(seed: u64) -> Self {
        SimRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Derive an independent child stream; used to give each subsystem its
    /// own RNG so adding draws in one place does not perturb another.
    // analyze:allow(dead-pub): a subsystem's own reproducible stream; the chaos plane's fault plans draw from one
    pub fn fork(&mut self, label: u64) -> SimRng {
        let s = self.inner.gen::<u64>() ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SimRng::seed_from_u64(s)
    }

    /// Uniform draw in `[0, 1)`.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform integer in `[lo, hi)`. Panics if the range is empty.
    #[inline]
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        self.inner.gen_range(lo..hi)
    }

    /// Uniform index in `[0, n)`. Panics if `n == 0`.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index over empty collection");
        self.inner.gen_range(0..n)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p.clamp(0.0, 1.0)
    }

    /// Uniformly pick a reference from a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.index(items.len())]
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.inner.gen_range(0..=i);
            items.swap(i, j);
        }
    }

    /// Exponential draw with the given rate (mean `1/rate`).
    /// Panics if `rate <= 0`.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "exponential rate must be positive");
        // Inverse CDF; guard the log away from ln(0).
        let u = 1.0 - self.f64();
        -u.ln() / rate
    }

    /// Normal draw via Box–Muller.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(std_dev >= 0.0, "std_dev must be non-negative");
        let u1 = (1.0 - self.f64()).max(f64::MIN_POSITIVE);
        let u2 = self.f64();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        mean + std_dev * z
    }

    /// Log-normal draw parameterized by the underlying normal's `mu`/`sigma`.
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Bounded Pareto draw on `[lo, hi]` with shape `alpha`; a standard model
    /// for heavy-tailed job runtimes.
    pub fn bounded_pareto(&mut self, alpha: f64, lo: f64, hi: f64) -> f64 {
        assert!(alpha > 0.0 && lo > 0.0 && hi > lo, "bad pareto parameters");
        let u = self.f64();
        let la = lo.powf(alpha);
        let ha = hi.powf(alpha);
        (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / alpha)
    }
}

/// Zipf-distributed index sampler over `n` ranks with exponent `s`.
///
/// Precomputes the cumulative distribution once (O(n) setup, O(log n) per
/// draw), which suits the workload generator's "few users submit most jobs"
/// activity model.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build a sampler over ranks `0..n`. Panics if `n == 0` or `s < 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf over zero ranks");
        assert!(s >= 0.0, "zipf exponent must be non-negative");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 1..=n {
            total += 1.0 / (k as f64).powf(s);
            cdf.push(total);
        }
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Draw a rank in `[0, n)`; rank 0 is the most likely.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let u = rng.f64();
        match self
            .cdf
            .binary_search_by(|probe| probe.partial_cmp(&u).expect("cdf is finite"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism_same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.f64().to_bits(), b.f64().to_bits());
        }
    }

    #[test]
    fn forked_streams_differ() {
        let mut root = SimRng::seed_from_u64(7);
        let mut a = root.fork(1);
        let mut b = root.fork(2);
        let va: Vec<u64> = (0..8).map(|_| a.range_u64(0, 1 << 30)).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.range_u64(0, 1 << 30)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn exponential_mean_close() {
        let mut rng = SimRng::seed_from_u64(1);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(2.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean was {mean}");
    }

    #[test]
    fn normal_moments() {
        let mut rng = SimRng::seed_from_u64(3);
        let n = 40_000;
        let draws: Vec<f64> = (0..n).map(|_| rng.normal(10.0, 3.0)).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        assert!((var - 9.0).abs() < 0.5, "var {var}");
    }

    #[test]
    fn bounded_pareto_within_bounds() {
        let mut rng = SimRng::seed_from_u64(4);
        for _ in 0..5_000 {
            let x = rng.bounded_pareto(1.5, 1.0, 1000.0);
            assert!((1.0..=1000.0).contains(&x), "out of bounds: {x}");
        }
    }

    #[test]
    fn zipf_rank_zero_most_frequent() {
        let mut rng = SimRng::seed_from_u64(5);
        let z = Zipf::new(50, 1.1);
        let mut counts = vec![0usize; 50];
        for _ in 0..30_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        let max = *counts.iter().max().unwrap();
        assert_eq!(counts[0], max, "rank 0 should dominate: {counts:?}");
        assert!(counts[0] > counts[10] && counts[10] > 0);
    }

    #[test]
    fn zipf_uniform_when_s_zero() {
        let mut rng = SimRng::seed_from_u64(6);
        let z = Zipf::new(10, 0.0);
        let mut counts = vec![0usize; 10];
        for _ in 0..50_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 5_000.0).abs() < 600.0, "counts {counts:?}");
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SimRng::seed_from_u64(7);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from_u64(8);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        // Out-of-range values clamp rather than panic.
        assert!(rng.chance(2.0));
        assert!(!rng.chance(-1.0));
    }
}
