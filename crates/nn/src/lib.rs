//! # iguard-nn — neural-network substrate for iGuard
//!
//! A small, dependency-light neural-network library built from scratch for
//! the iGuard reproduction. It provides exactly what the paper's pipeline
//! needs:
//!
//! * [`matrix::Matrix`] — dense row-major `f32` matrices with the handful of
//!   products backpropagation needs.
//! * [`layer`] — fully-connected layers and element-wise activations, plus
//!   [`conv::DilatedConv1d`] reproducing the dilated convolutions of the
//!   Magnifier (HorusEye) autoencoder.
//! * [`optim`] — the [`optim::Optimizer`] trait and Adam.
//! * [`network::Network`] — a sequential container with an MSE training loop.
//! * [`loss`] — MSE, per-sample RMSE (the reconstruction error `RE_u(x)` of
//!   paper §3.2.1) and the VAE's KL term.
//! * [`scale`] — min-max / standard scalers fitted on benign training data.
//!
//! ## Why from scratch?
//! The workspace builds hermetically — no external crates at all, so no
//! candle or linfa. The models involved are tiny (a few thousand
//! parameters), so a straightforward implementation is fast, auditable, and
//! fully seedable — every experiment in the benchmark harness is
//! reproducible bit for bit.
//!
//! ## Quick example
//! A 4 → 2 → 4 autoencoder trained on a tight benign cluster; its
//! per-sample RMSE is the anomaly score the Magnifier teacher
//! (`iguard-models`) thresholds.
//! ```
//! use iguard_nn::layer::{Activation, ActivationLayer, Dense};
//! use iguard_nn::loss::per_sample_rmse;
//! use iguard_nn::matrix::Matrix;
//! use iguard_nn::network::{Network, TrainConfig};
//! use iguard_nn::optim::Adam;
//! use iguard_runtime::rng::Rng;
//!
//! let mut rng = Rng::seed_from_u64(7);
//! // Benign data: tight cluster.
//! let mut train = Matrix::zeros(128, 4);
//! for v in train.as_mut_slice() { *v = 0.5 + rng.gen_range(-0.05..0.05); }
//! let mut net = Network::new(vec![
//!     Box::new(Dense::new(4, 2, &mut rng)),
//!     Box::new(ActivationLayer::new(Activation::Tanh)),
//!     Box::new(Dense::new(2, 4, &mut rng)),
//! ]);
//! let cfg = TrainConfig { epochs: 30, ..Default::default() };
//! let losses = net.fit(&train, &train, &mut Adam::new(1e-2), &cfg, &mut rng);
//! assert!(losses.last() < losses.first());
//! let errs = per_sample_rmse(&net.infer(&train), &train);
//! assert_eq!(errs.len(), 128);
//! ```

#![forbid(unsafe_code)]

pub mod conv;
pub mod layer;
pub mod loss;
pub mod matrix;
pub mod network;
pub mod optim;
pub mod scale;

pub use layer::Activation;
pub use matrix::Matrix;
pub use network::{Network, TrainConfig};
pub use scale::{MinMaxScaler, StandardScaler};
