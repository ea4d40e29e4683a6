//! The VAE prior loss shared by CPGAN and the baselines.

use crate::tape::Var;

/// KL divergence `KL(N(mu, sigma^2) || N(0, I))` summed over all entries and
/// averaged over rows:
/// `-0.5 / n * sum(1 + log sigma^2 - mu^2 - sigma^2)`.
///
/// `logvar` parameterizes `log sigma^2`, the standard VAE trick (paper
/// Eq. 19's `L_prior`).
pub fn gaussian_kl(mu: &Var, logvar: &Var) -> Var {
    let n = mu.shape().0.max(1) as f32;
    let term = logvar.add_scalar(1.0).sub(&mu.square()).sub(&logvar.exp());
    term.sum_all().scale(-0.5 / n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Tape;
    use crate::{Matrix, Param};

    #[test]
    fn kl_zero_at_standard_normal() {
        let t = Tape::new();
        let mu = t.constant(Matrix::zeros(3, 2));
        let logvar = t.constant(Matrix::zeros(3, 2));
        let kl = gaussian_kl(&mu, &logvar);
        assert!(kl.item().abs() < 1e-6);
    }

    #[test]
    fn kl_positive_away_from_prior() {
        let t = Tape::new();
        let mu = t.constant(Matrix::full(2, 2, 1.5));
        let logvar = t.constant(Matrix::full(2, 2, -1.0));
        assert!(gaussian_kl(&mu, &logvar).item() > 0.0);
    }

    #[test]
    fn kl_gradient_pulls_towards_prior() {
        let t = Tape::new();
        let p_mu = Param::new(Matrix::full(1, 2, 2.0));
        let p_lv = Param::new(Matrix::full(1, 2, 1.0));
        let mu = t.param(&p_mu);
        let lv = t.param(&p_lv);
        gaussian_kl(&mu, &lv).backward();
        // dKL/dmu = mu > 0; dKL/dlogvar = 0.5(exp(lv) - 1) > 0 for lv > 0.
        assert!(p_mu.lock().grad.as_slice().iter().all(|&g| g > 0.0));
        assert!(p_lv.lock().grad.as_slice().iter().all(|&g| g > 0.0));
    }
}
