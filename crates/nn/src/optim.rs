//! First-order optimizers operating on flat parameter/gradient slices.

/// An optimizer updates a list of (parameter, gradient) slice pairs in place.
///
/// The pairs are supplied in a stable order on every step (the network walks
/// its layers in order), which lets stateful optimizers like Adam keep one
/// moment buffer per parameter tensor.
pub trait Optimizer: Send {
    /// Applies one update step. `params_and_grads[i]` must refer to the same
    /// tensor on every call.
    fn step(&mut self, params_and_grads: &mut [(&mut [f32], &mut [f32])]);
}

/// Adam (Kingma & Ba 2015) with bias correction.
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// Adam with the canonical defaults (beta1 = 0.9, beta2 = 0.999).
    pub fn new(lr: f32) -> Self {
        Self::with_betas(lr, 0.9, 0.999)
    }

    pub fn with_betas(lr: f32, beta1: f32, beta2: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&beta1) && (0.0..1.0).contains(&beta2));
        Self { lr, beta1, beta2, eps: 1e-8, t: 0, m: Vec::new(), v: Vec::new() }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params_and_grads: &mut [(&mut [f32], &mut [f32])]) {
        if self.m.len() != params_and_grads.len() {
            self.m = params_and_grads.iter().map(|(p, _)| vec![0.0; p.len()]).collect();
            self.v = params_and_grads.iter().map(|(p, _)| vec![0.0; p.len()]).collect();
            self.t = 0;
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (i, (p, g)) in params_and_grads.iter_mut().enumerate() {
            let (m, v) = (&mut self.m[i], &mut self.v[i]);
            debug_assert_eq!(m.len(), p.len(), "parameter tensor changed size");
            for j in 0..p.len() {
                let grad = g[j];
                m[j] = self.beta1 * m[j] + (1.0 - self.beta1) * grad;
                v[j] = self.beta2 * v[j] + (1.0 - self.beta2) * grad * grad;
                let m_hat = m[j] / bc1;
                let v_hat = v[j] / bc2;
                p[j] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adam_converges_on_quadratic() {
        let mut x = vec![10.0f32];
        let mut g = vec![0.0f32];
        let mut opt = Adam::new(0.5);
        for _ in 0..200 {
            g[0] = 2.0 * (x[0] - 3.0);
            let mut pairs = vec![(x.as_mut_slice(), g.as_mut_slice())];
            opt.step(&mut pairs);
        }
        assert!((x[0] - 3.0).abs() < 1e-2, "x = {}", x[0]);
    }

    #[test]
    fn adam_handles_multiple_tensors() {
        let mut a = vec![5.0f32, -5.0];
        let mut ga = vec![0.0f32; 2];
        let mut b = vec![1.0f32];
        let mut gb = vec![0.0f32];
        let mut opt = Adam::new(0.2);
        for _ in 0..300 {
            for (i, v) in a.iter().enumerate() {
                ga[i] = 2.0 * v; // minimise a^2
            }
            gb[0] = 2.0 * (b[0] + 2.0); // minimise (b + 2)^2
            let mut pairs =
                vec![(a.as_mut_slice(), ga.as_mut_slice()), (b.as_mut_slice(), gb.as_mut_slice())];
            opt.step(&mut pairs);
        }
        assert!(a.iter().all(|v| v.abs() < 1e-2));
        assert!((b[0] + 2.0).abs() < 1e-2);
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn rejects_nonpositive_lr() {
        let _ = Adam::new(0.0);
    }
}
