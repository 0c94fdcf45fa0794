//! Seeded input generation and the order statistics the report uses.

/// SplitMix64: the benchmark's only source of randomness. Every input
/// value and every job order derives from the `--seed` argument through
/// one of these, so the same seed yields the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `n` grid values in `[0, 65536)` with eight fractional bits: finite,
    /// exactly representable, and varied enough that any misplaced tap
    /// changes an output.
    pub fn values(&mut self, n: u64) -> Vec<f64> {
        (0..n)
            .map(|_| (self.next_u64() >> 40) as f64 / 256.0)
            .collect()
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Median of `samples` (the mean of the middle two for an even count);
/// `0.0` for no samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Nearest-rank percentile `q` (in percent) of `samples`, together with
/// how many samples lie beyond it; `None` for no samples.
pub fn percentile(samples: &[f64], q: f64) -> Option<(f64, usize)> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let rank = ((q / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    Some((v[rank - 1], n - rank))
}

/// A latency percentile as the report states it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Which percentile, in percent.
    pub q: f64,
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// The highest of p50/p90/p99/p99.9 that still has at least
/// [`TAIL_SAMPLES`] samples beyond it, with the sample count; `None`
/// when even the median has too few.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    [99.9, 99.0, 90.0, 50.0].into_iter().find_map(|q| {
        let (value, beyond) = percentile(samples, q)?;
        (beyond >= TAIL_SAMPLES).then_some(Tail {
            q,
            value,
            samples: samples.len(),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let ms: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&ms).expect("100 samples carry a p90");
        assert_eq!((t.q, t.value, t.samples), (90.0, 90.0, 100));

        let ms: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&ms).expect("1000 samples carry a p99");
        assert_eq!((t.q, t.value, t.samples), (99.0, 990.0, 1000));

        // 99 samples leave only 9 beyond p90, so the median is the tail.
        let ms: Vec<f64> = (1..=99).map(f64::from).collect();
        let t = tail(&ms).expect("99 samples carry a median");
        assert_eq!((t.q, t.samples), (50.0, 99));

        assert_eq!(tail(&[1.0; 19]), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
