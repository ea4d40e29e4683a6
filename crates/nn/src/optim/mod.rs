//! Optimizers.

mod adam;

pub use adam::Adam;

use crate::params::ParamStore;

/// A first-order optimizer over a [`ParamStore`].
pub trait Optimizer {
    /// Applies one update step from the accumulated gradients, then zeroes
    /// them.
    fn step(&mut self, params: &ParamStore);

    /// Current learning rate.
    fn learning_rate(&self) -> f32;

    /// Overrides the learning rate (used by decay schedules; the paper's
    /// training protocol decays by 0.3 every 400 epochs, §IV-B).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Multiplicative step-decay schedule: `lr = lr0 * decay^(epoch / every)`.
#[derive(Debug, Clone, Copy)]
pub struct StepDecay {
    /// Initial learning rate.
    pub lr0: f32,
    /// Multiplicative factor per period.
    pub decay: f32,
    /// Period length in epochs.
    pub every: usize,
}

impl StepDecay {
    /// Learning rate at `epoch`.
    pub fn at(&self, epoch: usize) -> f32 {
        self.lr0 * self.decay.powi((epoch / self.every.max(1)) as i32)
    }
}

#[cfg(test)]
// Tests may assert exact float values (constructed, not computed).
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn decay_schedule() {
        let s = StepDecay {
            lr0: 0.001,
            decay: 0.3,
            every: 400,
        };
        assert_eq!(s.at(0), 0.001);
        assert_eq!(s.at(399), 0.001);
        assert!((s.at(400) - 0.0003).abs() < 1e-9);
        assert!((s.at(800) - 0.00009).abs() < 1e-9);
    }
}
