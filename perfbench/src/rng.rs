//! A small seeded generator for the benchmark's own draws (arrival times,
//! request mix, popularity), so its inputs depend on `--seed` alone.

pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    /// Exponential with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

/// Derives the seed of the `k`-th input of a run from the run's seed.
pub fn derive(seed: u64, k: u64) -> u64 {
    SplitMix64::new(seed ^ k.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// Hot-set popularity over `n` items in a seeded order: a draw picks one of
/// the first `hot` items with probability `hot_share`, otherwise one of the
/// rest, uniformly within each group.
pub struct Popularity {
    order: Vec<usize>,
    hot: usize,
    hot_share: f64,
}

impl Popularity {
    pub fn new(n: usize, hot: usize, hot_share: f64, rng: &mut SplitMix64) -> Self {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, rng.below(i + 1));
        }
        Popularity {
            order,
            hot: hot.min(n),
            hot_share,
        }
    }

    pub fn draw(&self, rng: &mut SplitMix64) -> usize {
        let cold = self.order.len() - self.hot;
        if cold == 0 || rng.unit() < self.hot_share {
            self.order[rng.below(self.hot)]
        } else {
            self.order[self.hot + rng.below(cold)]
        }
    }

    /// Two distinct items.
    pub fn draw_pair(&self, rng: &mut SplitMix64) -> (usize, usize) {
        let a = self.draw(rng);
        loop {
            let b = self.draw(rng);
            if b != a {
                return (a, b);
            }
        }
    }
}
