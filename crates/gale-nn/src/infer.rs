//! Forward-only, precision-generic inference replicas.
//!
//! Training owns the `f64` layer stack (optimizer state, gradients, RNG
//! streams); serving only ever runs evaluation-mode forwards. This module
//! lowers a trained network into a stripped [`InferNet`] — weights plus
//! the evaluation-mode compute graph, nothing else — generic over the
//! kernel [`Element`], so the same replica type serves both the `f64`
//! reference path and the bandwidth-halved `f32` path.
//!
//! Two contracts, both load-bearing for serving (DESIGN.md §6e):
//!
//! * **f64 parity is bitwise.** `InferNet::<f64>` mirrors the training
//!   stack's evaluation forward operation for operation (same GEMM tiles,
//!   same broadcast order, same scalar activation expressions, batch-norm
//!   folded into the exact per-feature chain evaluation mode computes), so
//!   lowering to `f64` and serving is indistinguishable from serving the
//!   training object itself.
//! * **Lowering is one-way.** `to_f32()` rounds each parameter once
//!   (round-to-nearest); nothing converts back into training state or
//!   checkpoints. The f32 replica is a different, lower-precision — but
//!   still deterministic and thread-count-invariant — function, compared
//!   against f64 by the tolerance-gated precision bench.

use crate::activation::Activation;
use crate::checkpoint::LayerState;
use crate::gae::Gae;
use crate::gcn::{Gcn, GcnLayer};
use crate::mlp::Mlp;
use gale_tensor::{Element, Matrix, SparseMatrix};
use std::sync::Arc;

/// Lowers an `f64` matrix into element type `E` (identity for `f64`,
/// round-to-nearest for `f32`).
fn lower<E: Element>(m: &Matrix) -> Matrix<E> {
    let mut out = Matrix::zeros(m.rows(), m.cols());
    for (o, &v) in out.data_mut().iter_mut().zip(m.data()) {
        *o = E::from_f64(v);
    }
    out
}

/// One evaluation-mode layer of an [`InferNet`].
///
/// Only the shapes evaluation mode can reach exist here: dropout lowers to
/// [`InferLayer::Identity`] (eval dropout is a copy), and batch-norm lowers
/// to its folded per-feature affine form.
pub enum InferLayer<E: Element> {
    /// Dense affine layer: `out = x W + b`.
    Linear {
        /// Weights, `in_dim x out_dim`.
        w: Matrix<E>,
        /// Bias row, `1 x out_dim`.
        b: Matrix<E>,
    },
    /// Evaluation-mode batch normalization, pre-folded per feature:
    /// `out = ((x - mean) * std_inv) * gamma + beta` with
    /// `std_inv = 1 / sqrt(var + eps)` computed at lowering time in the
    /// same expression evaluation mode uses, so the f64 replica matches
    /// the live layer bit for bit.
    BatchNorm {
        /// Running mean per feature.
        mean: Vec<E>,
        /// `1 / sqrt(running_var + eps)` per feature.
        std_inv: Vec<E>,
        /// Learned scale per feature.
        gamma: Vec<E>,
        /// Learned shift per feature.
        beta: Vec<E>,
    },
    /// Element-wise activation.
    Activation(Activation),
    /// Pure copy (evaluation-mode dropout).
    Identity,
}

/// A forward-only sequential network over element type `E`, with the same
/// persistent-tap buffer discipline as [`Mlp::forward_inplace`]: steady
/// state inference allocates nothing.
pub struct InferNet<E: Element> {
    layers: Vec<InferLayer<E>>,
    taps: Vec<Matrix<E>>,
}

impl<E: Element> InferNet<E> {
    /// Builds a replica from checkpoint-shape layer snapshots (the output
    /// of [`Mlp::layer_states`]).
    ///
    /// Panics on a `None` snapshot: every layer the serving stack uses
    /// (linear / batch-norm / activation / dropout) snapshots itself, so a
    /// gap means the network contains a layer inference cannot replicate.
    pub fn from_states(states: &[Option<LayerState>]) -> Self {
        let layers = states
            .iter()
            .enumerate()
            .map(|(i, st)| {
                let st = st
                    .as_ref()
                    .unwrap_or_else(|| panic!("InferNet: layer {i} has no state snapshot"));
                match st {
                    LayerState::Linear { w, b } => InferLayer::Linear {
                        w: lower(w),
                        b: lower(b),
                    },
                    LayerState::Activation { act } => InferLayer::Activation(*act),
                    LayerState::Dropout { .. } => InferLayer::Identity,
                    LayerState::BatchNorm {
                        gamma,
                        beta,
                        running_mean,
                        running_var,
                        eps,
                        ..
                    } => {
                        let mean: Vec<E> = running_mean.iter().map(|&m| E::from_f64(m)).collect();
                        // Same expression BatchNorm's evaluation mode
                        // computes per feature; for E = f64 the bits match.
                        let std_inv: Vec<E> = running_var
                            .iter()
                            .map(|&v| E::ONE / (E::from_f64(v) + E::from_f64(*eps)).sqrt())
                            .collect();
                        let gamma: Vec<E> = gamma.row(0).iter().map(|&g| E::from_f64(g)).collect();
                        let beta: Vec<E> = beta.row(0).iter().map(|&b| E::from_f64(b)).collect();
                        InferLayer::BatchNorm {
                            mean,
                            std_inv,
                            gamma,
                            beta,
                        }
                    }
                }
            })
            .collect::<Vec<_>>();
        let depth = layers.len().max(1);
        InferNet {
            layers,
            taps: (0..depth).map(|_| Matrix::zeros(0, 0)).collect(),
        }
    }

    /// Number of layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Output of layer `i` from the most recent forward pass (the
    /// embedding tap, mirroring [`Mlp::tap`]).
    pub fn tap(&self, i: usize) -> &Matrix<E> {
        &self.taps[i]
    }

    /// Evaluation forward returning a borrow of the final tap; persistent
    /// buffers, no steady-state allocation — the inference analogue of
    /// [`Mlp::forward_inplace`] with `train = false`.
    pub fn forward_inplace(&mut self, x: &Matrix<E>) -> &Matrix<E> {
        if self.layers.is_empty() {
            self.taps[0].copy_from(x);
            return &self.taps[0];
        }
        for i in 0..self.layers.len() {
            let (prev, cur) = self.taps.split_at_mut(i);
            let input: &Matrix<E> = if i == 0 { x } else { &prev[i - 1] };
            let out = &mut cur[0];
            match &self.layers[i] {
                InferLayer::Linear { w, b } => {
                    x_linear(input, w, b, out);
                }
                InferLayer::BatchNorm {
                    mean,
                    std_inv,
                    gamma,
                    beta,
                } => {
                    out.copy_from(input);
                    let cols = out.cols();
                    for row in 0..out.rows() {
                        let r = out.row_mut(row);
                        for c in 0..cols {
                            r[c] = ((r[c] - mean[c]) * std_inv[c]) * gamma[c] + beta[c];
                        }
                    }
                }
                InferLayer::Activation(act) => {
                    out.copy_from(input);
                    act.apply_slice_e(out.data_mut());
                }
                InferLayer::Identity => {
                    out.copy_from(input);
                }
            }
        }
        self.taps.last().expect("taps sized at construction")
    }
}

/// `out = x W + b`, the evaluation path of `Linear::forward_into` without
/// the training-only input cache.
fn x_linear<E: Element>(x: &Matrix<E>, w: &Matrix<E>, b: &Matrix<E>, out: &mut Matrix<E>) {
    x.matmul_into(w, out);
    out.add_row_broadcast(b.row(0));
}

impl Mlp {
    /// Lowers this network into a forward-only replica over element `E`.
    /// `to_infer::<f64>()` is the bitwise-parity reference; see the module
    /// docs for the contract.
    pub fn to_infer<E: Element>(&self) -> InferNet<E> {
        InferNet::from_states(&self.layer_states())
    }

    /// One-way lowering to the `f32` inference replica.
    pub fn to_f32(&self) -> InferNet<f32> {
        self.to_infer::<f32>()
    }
}

/// One lowered graph-convolution layer: `out = act(S X W + b)` with the
/// shared `f64` CSR operator lowered at accumulate time (see
/// [`SparseMatrix::spmm_lowered_into`]).
struct GcnInferLayer<E: Element> {
    s: Arc<SparseMatrix>,
    w: Matrix<E>,
    b: Matrix<E>,
    act: Activation,
    sx: Matrix<E>,
}

impl<E: Element> GcnInferLayer<E> {
    fn from_layer(l: &GcnLayer) -> Self {
        GcnInferLayer {
            s: l.s.clone(),
            w: lower(&l.w),
            b: lower(&l.b),
            act: l.act,
            sx: Matrix::zeros(0, 0),
        }
    }

    fn forward_into(&mut self, x: &Matrix<E>, out: &mut Matrix<E>) {
        self.s.spmm_lowered_into(x, &mut self.sx);
        x_linear(&self.sx, &self.w, &self.b, out);
        self.act.apply_slice_e(out.data_mut());
    }
}

/// Forward-only replica of the two-layer [`Gcn`].
pub struct GcnInfer<E: Element> {
    layer1: GcnInferLayer<E>,
    layer2: GcnInferLayer<E>,
    hidden: Matrix<E>,
}

impl<E: Element> GcnInfer<E> {
    /// Evaluation forward `out = act2(S act1(S X W1 + b1) W2 + b2)`.
    pub fn forward_into(&mut self, x: &Matrix<E>, out: &mut Matrix<E>) {
        self.layer1.forward_into(x, &mut self.hidden);
        self.layer2.forward_into(&self.hidden, out);
    }

    /// The layer-1 activations from the most recent forward (the GAE
    /// embedding surface).
    pub fn hidden(&self) -> &Matrix<E> {
        &self.hidden
    }
}

impl Gcn {
    /// Lowers the encoder into a forward-only replica over element `E`.
    pub fn to_infer<E: Element>(&self) -> GcnInfer<E> {
        GcnInfer {
            layer1: GcnInferLayer::from_layer(&self.layer1),
            layer2: GcnInferLayer::from_layer(&self.layer2),
            hidden: Matrix::zeros(0, 0),
        }
    }

    /// One-way lowering to the `f32` inference replica.
    pub fn to_f32(&self) -> GcnInfer<f32> {
        self.to_infer::<f32>()
    }
}

/// Forward-only replica of a trained [`Gae`]: the encoder alone, since
/// serving only ever needs embeddings (the decoder is a training loss).
pub struct GaeInfer<E: Element> {
    encoder: GcnInfer<E>,
}

impl<E: Element> GaeInfer<E> {
    /// Embeddings `Z = encoder(X)`.
    pub fn embed_into(&mut self, x: &Matrix<E>, z: &mut Matrix<E>) {
        self.encoder.forward_into(x, z);
    }
}

impl Gae {
    /// Lowers the trained encoder into a forward-only replica over `E`.
    pub fn to_infer<E: Element>(&self) -> GaeInfer<E> {
        GaeInfer {
            encoder: self.encoder.to_infer::<E>(),
        }
    }

    /// One-way lowering to the `f32` inference replica.
    pub fn to_f32(&self) -> GaeInfer<f32> {
        self.to_infer::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gale_tensor::Rng;

    /// An Mlp with every lowerable layer kind: Linear, BatchNorm (with
    /// non-trivial running stats from a few training-mode passes),
    /// LeakyRelu activations, and Dropout.
    fn trained_stack(rng: &mut Rng) -> Mlp {
        let mut net = Mlp::dense(&[7, 11, 5, 3], Activation::LeakyRelu, true, 0.3, rng);
        for step in 0..4 {
            let x = Matrix::randn(9, 7, 1.0 + step as f64 * 0.25, rng);
            net.forward_inplace(&x, true);
        }
        net
    }

    #[test]
    fn f64_replica_matches_eval_forward_bitwise() {
        let mut rng = Rng::seed_from_u64(42);
        let mut net = trained_stack(&mut rng);
        let mut replica = net.to_infer::<f64>();
        for trial in 0..3 {
            let x = Matrix::randn(6, 7, 2.0, &mut rng);
            let want = net.forward_inplace(&x, false).clone();
            let got = replica.forward_inplace(&x);
            assert_eq!(got.shape(), want.shape());
            for (g, w) in got.data().iter().zip(want.data()) {
                assert_eq!(g.to_bits(), w.to_bits(), "trial {trial}");
            }
        }
    }

    #[test]
    fn f32_replica_tracks_f64_within_single_precision() {
        let mut rng = Rng::seed_from_u64(43);
        let net = trained_stack(&mut rng);
        let mut r64 = net.to_infer::<f64>();
        let mut r32 = net.to_f32();
        let x = Matrix::randn(8, 7, 1.5, &mut rng);
        let y64 = r64.forward_inplace(&x).clone();
        let y32 = r32.forward_inplace(&x.to_f32()).clone();
        for (a, b) in y32.data().iter().zip(y64.data()) {
            let scale = 1.0 + b.abs();
            assert!((*a as f64 - b).abs() <= 1e-4 * scale, "f32 {a} vs f64 {b}");
        }
    }

    #[test]
    fn gcn_f64_replica_matches_eval_forward_bitwise() {
        use crate::layer::Layer;
        let mut rng = Rng::seed_from_u64(7);
        let s = Arc::new(SparseMatrix::from_triplets(
            5,
            5,
            [
                (0, 0, 0.5),
                (0, 1, 0.5),
                (1, 0, 0.3),
                (1, 1, 0.7),
                (2, 2, 1.0),
                (3, 3, 0.9),
                (3, 4, 0.1),
                (4, 4, 1.0),
            ],
        ));
        let mut gcn = Gcn::new(s, 4, 6, 3, crate::activation::Activation::Sigmoid, &mut rng);
        let x = Matrix::randn(5, 4, 1.0, &mut rng);
        let mut want = Matrix::zeros(0, 0);
        gcn.forward_into(&x, false, &mut want);
        let mut replica = gcn.to_infer::<f64>();
        let mut got = Matrix::zeros(0, 0);
        replica.forward_into(&x, &mut got);
        assert_eq!(got.shape(), want.shape());
        for (g, w) in got.data().iter().zip(want.data()) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
        // Hidden tap must match the training object's hidden activations.
        for (g, w) in replica.hidden().data().iter().zip(gcn.hidden().data()) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
    }

    #[test]
    fn f32_forward_is_thread_count_invariant() {
        use gale_tensor::par::with_threads;
        let mut rng = Rng::seed_from_u64(77);
        let net = trained_stack(&mut rng);
        let x = Matrix::randn(33, 7, 1.0, &mut rng).to_f32();
        let want: Vec<u32> = with_threads(1, || {
            let mut r = net.to_f32();
            r.forward_inplace(&x)
                .data()
                .iter()
                .map(|v| v.to_bits())
                .collect()
        });
        for threads in [2usize, 8] {
            let got: Vec<u32> = with_threads(threads, || {
                let mut r = net.to_f32();
                r.forward_inplace(&x)
                    .data()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect()
            });
            assert_eq!(got, want, "threads {threads}");
        }
    }
}
