//! Weight initialization.

use crate::Matrix;
use rand::Rng;
use rand_distr::{Distribution, StandardNormal};

/// Xavier/Glorot uniform initialization: `U(-a, a)` with
/// `a = sqrt(6 / (fan_in + fan_out))`. The default for linear and GCN
/// weights throughout the workspace.
pub fn xavier_uniform<R: Rng>(rng: &mut R, fan_in: usize, fan_out: usize) -> Matrix {
    let a = (6.0 / (fan_in + fan_out) as f32).sqrt();
    Matrix::from_fn(fan_in, fan_out, |_, _| rng.gen_range(-a..a))
}

/// Standard normal matrix (used for VAE prior samples and noise inputs).
pub fn standard_normal<R: Rng>(rng: &mut R, rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| StandardNormal.sample(rng))
}

/// The listed rows of a [`standard_normal`] draw with `cols` columns, bit
/// for bit: row `k` of the result is row `rows[k]` of the matrix
/// `standard_normal` would draw from `rng`. `rows` must be strictly
/// ascending.
///
/// The normals of rows left out are skipped, not computed, and rows
/// after the last listed one are not touched: `rng` is left where that
/// row's successor would start.
pub fn standard_normal_rows<R: Rng>(rng: &mut R, cols: usize, rows: &[usize]) -> Matrix {
    let mut out = Matrix::zeros(rows.len(), cols);
    let mut next = 0;
    for (k, &r) in rows.iter().enumerate() {
        assert!(r >= next, "rows must be strictly ascending: {rows:?}");
        for _ in 0..(r - next) * cols {
            skip_standard_normal(rng);
        }
        for v in out.row_mut(k) {
            *v = StandardNormal.sample(rng);
        }
        next = r + 1;
    }
    out
}

/// Advances `rng` past one `StandardNormal` draw without computing it. The
/// shim's Box–Muller loop draws two uniforms per attempt and accepts when
/// `u1 > f64::MIN_POSITIVE`; this runs the same loop and skips the `ln`,
/// `sqrt` and `cos` of the accepted attempt.
fn skip_standard_normal<R: Rng>(rng: &mut R) {
    loop {
        let u1: f64 = rng.gen();
        let _u2: f64 = rng.gen();
        if u1 > f64::MIN_POSITIVE {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn bits(row: &[f32]) -> Vec<u32> {
        row.iter().map(|v| v.to_bits()).collect()
    }

    /// `standard_normal_rows` against the same rows of a full `n`-row
    /// draw from the same seed, and the stream each leaves behind.
    fn assert_rows_match(seed: u64, n: usize, cols: usize, rows: &[usize]) {
        let full = standard_normal(&mut StdRng::seed_from_u64(seed), n, cols);
        let mut rng = StdRng::seed_from_u64(seed);
        let got = standard_normal_rows(&mut rng, cols, rows);
        assert_eq!(got.shape(), (rows.len(), cols));
        for (k, &r) in rows.iter().enumerate() {
            assert_eq!(
                bits(got.row(k)),
                bits(full.row(r)),
                "seed {seed}, {n}x{cols}, row {r} of {rows:?}"
            );
        }
        // Nothing after the last listed row is drawn or skipped.
        let drawn = rows.last().map_or(0, |&r| r + 1);
        let mut prefix = StdRng::seed_from_u64(seed);
        standard_normal(&mut prefix, drawn, cols);
        assert_eq!(rng.next_u64(), prefix.next_u64(), "stream left by {rows:?}");
    }

    #[test]
    fn listed_rows_match_a_full_draw() {
        let mut pick = StdRng::seed_from_u64(3);
        for seed in 0..200 {
            let n = pick.gen_range(1..40);
            let cols = pick.gen_range(1..9);
            let some: Vec<usize> = (0..n).filter(|_| pick.gen_bool(0.3)).collect();
            for rows in [vec![], vec![0], vec![n - 1], (0..n).collect(), some] {
                assert_rows_match(seed, n, cols, &rows);
            }
        }
    }

    /// A seeded stream that yields 0 (a uniform Box–Muller rejects when it
    /// is `u1`) at the listed call indices, counting its calls.
    struct ZeroAt {
        inner: StdRng,
        zeros: &'static [usize],
        calls: usize,
    }

    impl ZeroAt {
        fn new(zeros: &'static [usize]) -> Self {
            ZeroAt {
                inner: StdRng::seed_from_u64(9),
                zeros,
                calls: 0,
            }
        }
    }

    impl RngCore for ZeroAt {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }
        fn next_u64(&mut self) -> u64 {
            let v = self.inner.next_u64();
            self.calls += 1;
            if self.zeros.contains(&(self.calls - 1)) {
                0
            } else {
                v
            }
        }
    }

    #[test]
    fn a_skip_consumes_what_a_draw_consumes_through_rejections() {
        // Call 0 is the first attempt's `u1`: zero forces a second attempt
        // (calls 2 and 3); zeros at 0 and 2 force a third. A zero `u2`
        // (call 1) is accepted.
        for zeros in [&[][..], &[0], &[0, 2], &[1], &[0, 3]] {
            let (mut skipped, mut drawn) = (ZeroAt::new(zeros), ZeroAt::new(zeros));
            skip_standard_normal(&mut skipped);
            let _: f32 = StandardNormal.sample(&mut drawn);
            assert_eq!(skipped.calls, drawn.calls, "zeros at {zeros:?}");
            assert_eq!(skipped.next_u64(), drawn.next_u64(), "zeros at {zeros:?}");
        }
        // Through the public helper: a skipped row whose first normal is
        // rejected once still leaves the next row's values intact.
        let full = standard_normal(&mut ZeroAt::new(&[0]), 2, 3);
        let got = standard_normal_rows(&mut ZeroAt::new(&[0]), 3, &[1]);
        assert_eq!(bits(got.row(0)), bits(full.row(1)));
    }

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
