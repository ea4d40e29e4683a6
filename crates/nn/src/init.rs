//! Weight initialization.

use crate::Matrix;
use rand::Rng;

/// Xavier/Glorot uniform initialization: `U(-a, a)` with
/// `a = sqrt(6 / (fan_in + fan_out))`. The default for linear and GCN
/// weights throughout the workspace.
pub fn xavier_uniform<R: Rng>(rng: &mut R, fan_in: usize, fan_out: usize) -> Matrix {
    let a = (6.0 / (fan_in + fan_out) as f32).sqrt();
    Matrix::from_fn(fan_in, fan_out, |_, _| rng.gen_range(-a..a))
}

/// Standard normal matrix (used for VAE prior samples and noise inputs).
pub fn standard_normal<R: Rng>(rng: &mut R, rows: usize, cols: usize) -> Matrix {
    use rand_distr::{Distribution, StandardNormal};
    Matrix::from_fn(rows, cols, |_, _| StandardNormal.sample(rng))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn xavier_within_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let w = xavier_uniform(&mut rng, 64, 32);
        let a = (6.0f32 / 96.0).sqrt();
        assert!(w.as_slice().iter().all(|&v| v > -a && v < a));
        assert_eq!(w.shape(), (64, 32));
    }

    #[test]
    fn normal_has_roughly_unit_variance() {
        let mut rng = StdRng::seed_from_u64(2);
        let m = standard_normal(&mut rng, 100, 100);
        let mean: f32 = m.as_slice().iter().sum::<f32>() / 10_000.0;
        let var: f32 = m
            .as_slice()
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f32>()
            / 10_000.0;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }
}
