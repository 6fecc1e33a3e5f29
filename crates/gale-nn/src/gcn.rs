//! Graph convolutional layers (Kipf & Welling's first-order approximation,
//! the paper's reference [30]).
//!
//! A layer computes `Z = act(S X W)` where `S` is the symmetric-normalized
//! adjacency with self-loops. `S` is shared by reference between layers and
//! is constant, so backprop only flows into `W` and `X`.

use crate::activation::Activation;
use crate::layer::Layer;
use crate::sampler::Block;
use gale_tensor::{spmm_access_into, CsrBlock, Matrix, NeighborAccess, Rng, SparseMatrix};
use std::sync::Arc;

/// One graph-convolution layer: `Z = act(S X W + b)`.
pub struct GcnLayer {
    pub(crate) s: Arc<SparseMatrix>,
    pub(crate) w: Matrix,
    pub(crate) b: Matrix,
    gw: Matrix,
    gb: Matrix,
    pub(crate) act: Activation,
    cached_sx: Matrix,
    cached_pre: Matrix,
    cached_out: Matrix,
    // Backward scratch, reused across steps.
    scratch_dpre: Matrix,
    scratch_dxw: Matrix,
}

impl GcnLayer {
    /// Creates a GCN layer over the shared propagation operator `s`.
    pub fn new(
        s: Arc<SparseMatrix>,
        in_dim: usize,
        out_dim: usize,
        act: Activation,
        rng: &mut Rng,
    ) -> Self {
        let limit = (6.0 / (in_dim + out_dim) as f64).sqrt();
        GcnLayer {
            s,
            w: Matrix::rand_uniform(in_dim, out_dim, -limit, limit, rng),
            b: Matrix::zeros(1, out_dim),
            gw: Matrix::zeros(in_dim, out_dim),
            gb: Matrix::zeros(1, out_dim),
            act,
            cached_sx: Matrix::zeros(0, 0),
            cached_pre: Matrix::zeros(0, 0),
            cached_out: Matrix::zeros(0, 0),
            scratch_dpre: Matrix::zeros(0, 0),
            scratch_dxw: Matrix::zeros(0, 0),
        }
    }

    /// Rebuilds a layer from checkpointed parameters over the given graph
    /// operator. `b` must be a `1 x out_dim` row matching `w`.
    pub fn from_parts(s: Arc<SparseMatrix>, w: Matrix, b: Matrix, act: Activation) -> Self {
        assert_eq!(
            (b.rows(), b.cols()),
            (1, w.cols()),
            "GcnLayer::from_parts: bias shape {:?} does not fit weights {:?}",
            b.shape(),
            w.shape()
        );
        let (gw, gb) = (
            Matrix::zeros(w.rows(), w.cols()),
            Matrix::zeros(1, b.cols()),
        );
        GcnLayer {
            s,
            w,
            b,
            gw,
            gb,
            act,
            cached_sx: Matrix::zeros(0, 0),
            cached_pre: Matrix::zeros(0, 0),
            cached_out: Matrix::zeros(0, 0),
            scratch_dpre: Matrix::zeros(0, 0),
            scratch_dxw: Matrix::zeros(0, 0),
        }
    }

    /// Everything after the propagation product: `pre = (S X) W + b`,
    /// `out = act(pre)`, caches refreshed for backward. Shared by the
    /// full-graph, block, and access forward paths, so a block whose
    /// operator slice equals the full `S` is bitwise identical to the
    /// full-graph pass.
    fn finish_forward(&mut self, out: &mut Matrix) {
        self.cached_sx.matmul_into(&self.w, &mut self.cached_pre);
        self.cached_pre.add_row_broadcast(self.b.row(0));
        self.cached_out.copy_from(&self.cached_pre);
        for v in self.cached_out.data_mut() {
            *v = self.act.apply(*v);
        }
        out.copy_from(&self.cached_out);
    }

    /// Forward over a sampled block slice: `out = act(op X W + b)` where
    /// `op` is the induced `|out rows| x |x rows|` operator from a
    /// [`NeighborSampler`](crate::sampler::NeighborSampler) hop.
    pub fn forward_block_into(&mut self, op: &CsrBlock, x: &Matrix, out: &mut Matrix) {
        assert_eq!(x.rows(), op.cols(), "GcnLayer: block frontier mismatch");
        op.spmm_into(x, &mut self.cached_sx);
        self.finish_forward(out);
    }

    /// Backward for a block forward: parameter gradients from the cached
    /// activations, input gradient gathered through the transposed slice
    /// (`grad_in = opᵀ (dpre Wᵀ)`), sized `|x rows| x in_dim`.
    ///
    /// For a full-fanout block over all nodes `opᵀ`'s rows are bitwise
    /// equal to `S`'s rows (the operator is symmetric and its entries are
    /// products of commuting factors), so this path reproduces
    /// [`Layer::backward_into`] exactly.
    pub fn backward_block_into(
        &mut self,
        op_t: &CsrBlock,
        grad_out: &Matrix,
        grad_in: &mut Matrix,
    ) {
        self.backward_common(grad_out);
        op_t.spmm_into(&self.scratch_dxw, grad_in);
    }

    /// Forward over any [`NeighborAccess`] operator (e.g. the normalized
    /// view of a memory-mapped store) instead of the layer's own `S`; used
    /// for full-graph inference at scales where `S` is never materialized.
    pub fn forward_access_into<A: NeighborAccess + Sync + ?Sized>(
        &mut self,
        a: &A,
        x: &Matrix,
        out: &mut Matrix,
    ) {
        assert_eq!(x.rows(), a.node_count(), "GcnLayer: node count mismatch");
        spmm_access_into(a, x, &mut self.cached_sx);
        self.finish_forward(out);
    }

    /// Computes dL/dpre and the parameter gradients shared by both backward
    /// paths; leaves `S^T (dpre W^T)`'s inner product in `scratch_dxw`.
    fn backward_common(&mut self, grad_out: &Matrix) {
        // dL/dpre = grad_out * act'(pre)  (elementwise).
        self.scratch_dpre.copy_from(grad_out);
        for i in 0..self.scratch_dpre.data().len() {
            let x = self.cached_pre.data()[i];
            let y = self.cached_out.data()[i];
            let d = match self.act {
                Activation::Relu => {
                    if x > 0.0 {
                        1.0
                    } else {
                        0.0
                    }
                }
                Activation::LeakyRelu => {
                    if x > 0.0 {
                        1.0
                    } else {
                        0.2
                    }
                }
                Activation::Tanh => 1.0 - y * y,
                Activation::Sigmoid => y * (1.0 - y),
                Activation::Identity => 1.0,
            };
            self.scratch_dpre.data_mut()[i] *= d;
        }
        // dW += (S X)^T dpre ; db += colsums(dpre);
        self.cached_sx
            .matmul_tn_acc(&self.scratch_dpre, &mut self.gw);
        for (gb, s) in self
            .gb
            .row_mut(0)
            .iter_mut()
            .zip(self.scratch_dpre.sum_rows())
        {
            *gb += s;
        }
        self.scratch_dpre
            .matmul_nt_into(&self.w, &mut self.scratch_dxw);
    }
}

impl Layer for GcnLayer {
    fn forward(&mut self, x: &Matrix, train: bool) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.forward_into(x, train, &mut out);
        out
    }

    fn forward_into(&mut self, x: &Matrix, _train: bool, out: &mut Matrix) {
        assert_eq!(x.rows(), self.s.rows(), "GcnLayer: node count mismatch");
        self.s.spmm_into(x, &mut self.cached_sx);
        self.finish_forward(out);
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.backward_into(grad_out, &mut out);
        out
    }

    fn backward_into(&mut self, grad_out: &Matrix, grad_in: &mut Matrix) {
        self.backward_common(grad_out);
        // dX = S^T (dpre W^T) = S (dpre W^T) since S is symmetric.
        self.s.spmm_into(&self.scratch_dxw, grad_in);
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        f(&mut self.w, &mut self.gw);
        f(&mut self.b, &mut self.gb);
    }
}

/// A two-layer GCN encoder, the standard architecture for semi-supervised
/// node classification (and the encoder of the GAE).
pub struct Gcn {
    pub(crate) layer1: GcnLayer,
    pub(crate) layer2: GcnLayer,
    hidden: Matrix,
    ghidden: Matrix,
}

impl Gcn {
    /// Builds `in_dim -> hidden -> out_dim` with ReLU in between and a
    /// configurable output activation (identity for logits, identity for
    /// embeddings too).
    pub fn new(
        s: Arc<SparseMatrix>,
        in_dim: usize,
        hidden_dim: usize,
        out_dim: usize,
        out_act: Activation,
        rng: &mut Rng,
    ) -> Self {
        Gcn {
            layer1: GcnLayer::new(s.clone(), in_dim, hidden_dim, Activation::Relu, rng),
            layer2: GcnLayer::new(s, hidden_dim, out_dim, out_act, rng),
            hidden: Matrix::zeros(0, 0),
            ghidden: Matrix::zeros(0, 0),
        }
    }

    /// Builds a GCN with no attached graph operator, for use exclusively
    /// through the block ([`Gcn::forward_block_into`]) and access
    /// ([`Gcn::forward_access_into`]) paths — the out-of-core training
    /// configuration, where `S` is never materialized. The weight
    /// initialization draws the same RNG sequence as [`Gcn::new`].
    pub fn new_detached(
        in_dim: usize,
        hidden_dim: usize,
        out_dim: usize,
        out_act: Activation,
        rng: &mut Rng,
    ) -> Self {
        Gcn::new(
            Arc::new(SparseMatrix::zeros(0, 0)),
            in_dim,
            hidden_dim,
            out_dim,
            out_act,
            rng,
        )
    }

    /// Forward over a 2-hop sampled [`Block`]: `x` holds the feature rows
    /// of `block.inputs()`, the output holds rows for `block.seeds()`.
    pub fn forward_block_into(&mut self, block: &Block, x: &Matrix, out: &mut Matrix) {
        assert_eq!(block.depth(), 2, "Gcn: need a 2-hop block");
        self.layer1
            .forward_block_into(&block.ops[1], x, &mut self.hidden);
        self.layer2
            .forward_block_into(&block.ops[0], &self.hidden, out);
    }

    /// Backward for [`Gcn::forward_block_into`]: `grad_out` has seed rows,
    /// `grad_in` gets `block.inputs()` rows.
    pub fn backward_block_into(&mut self, block: &Block, grad_out: &Matrix, grad_in: &mut Matrix) {
        assert_eq!(block.depth(), 2, "Gcn: need a 2-hop block");
        self.layer2
            .backward_block_into(&block.ops_t[0], grad_out, &mut self.ghidden);
        self.layer1
            .backward_block_into(&block.ops_t[1], &self.ghidden, grad_in);
    }

    /// Full-graph inference over any [`NeighborAccess`] operator instead of
    /// the attached `S` (evaluation path for out-of-core graphs). Memory is
    /// the two layer activations — `n x hidden` and `n x out` — not the
    /// operator.
    pub fn forward_access_into<A: NeighborAccess + Sync + ?Sized>(
        &mut self,
        a: &A,
        x: &Matrix,
        out: &mut Matrix,
    ) {
        self.layer1.forward_access_into(a, x, &mut self.hidden);
        self.layer2.forward_access_into(a, &self.hidden, out);
    }

    /// Neighborhood-local layer 1: recomputes the hidden rows `rows`
    /// (sorted ascending, deduplicated) of a full-graph forward over `a`
    /// and writes them in place into `hidden`, the `n x hidden_dim`
    /// layer-1 activations kept from an earlier pass. `x` is the full
    /// feature matrix (`a.node_count()` rows).
    ///
    /// Each row reads its full operator row with global columns, in the
    /// same ascending order as [`Gcn::forward_access_into`], and shares
    /// `finish_forward`, so every written row is **bitwise identical** to
    /// the same row of the full pass. Cost is `O(Σ_rows d̄)` operator
    /// entries — the streaming path's incremental refresh.
    pub fn hidden_rows_access_into<A: NeighborAccess + Sync + ?Sized>(
        &mut self,
        a: &A,
        rows: &[usize],
        x: &Matrix,
        hidden: &mut Matrix,
    ) {
        assert_eq!(x.rows(), a.node_count(), "Gcn: node count mismatch");
        assert_eq!(hidden.rows(), a.node_count(), "Gcn: hidden row mismatch");
        self.layer1
            .forward_block_into(&rows_block(a, rows), x, &mut self.hidden);
        for (k, &r) in rows.iter().enumerate() {
            hidden.set_row(r, self.hidden.row(k));
        }
    }

    /// Neighborhood-local layer 2: the output rows `rows` (sorted
    /// ascending, deduplicated) of a full-graph forward over `a`, read
    /// from the full `n x hidden_dim` layer-1 activations `hidden` and
    /// written to `out` in `rows` order. Bitwise identical to those rows
    /// of [`Gcn::forward_access_into`] whenever `hidden` is (for instance
    /// after [`Gcn::hidden_rows_access_into`] refreshed its stale rows).
    pub fn output_rows_access_into<A: NeighborAccess + Sync + ?Sized>(
        &mut self,
        a: &A,
        rows: &[usize],
        hidden: &Matrix,
        out: &mut Matrix,
    ) {
        assert_eq!(hidden.rows(), a.node_count(), "Gcn: hidden row mismatch");
        self.layer2
            .forward_block_into(&rows_block(a, rows), hidden, out);
    }

    /// Moves the layer-1 activations of the most recent forward out of the
    /// encoder (no copy), leaving it an empty matrix.
    pub fn take_hidden(&mut self) -> Matrix {
        std::mem::replace(&mut self.hidden, Matrix::zeros(0, 0))
    }

    /// Hidden representation from the most recent forward pass.
    pub fn hidden(&self) -> &Matrix {
        &self.hidden
    }

    /// Rebuilds a two-layer GCN from checkpointed layers.
    pub fn from_parts(layer1: GcnLayer, layer2: GcnLayer) -> Self {
        assert_eq!(
            layer1.w.cols(),
            layer2.w.rows(),
            "Gcn::from_parts: layer widths disagree"
        );
        Gcn {
            layer1,
            layer2,
            hidden: Matrix::zeros(0, 0),
            ghidden: Matrix::zeros(0, 0),
        }
    }
}

/// The operator rows `rows` of `a` (sorted ascending, deduplicated) as a
/// block over all of `a`'s columns, each row in `a`'s visit order.
fn rows_block<A: NeighborAccess + ?Sized>(a: &A, rows: &[usize]) -> CsrBlock {
    debug_assert!(
        rows.windows(2).all(|w| w[0] < w[1]),
        "Gcn: rows must be sorted and deduplicated"
    );
    let mut op = CsrBlock::new();
    op.reset(a.node_count());
    for &r in rows {
        a.visit_neighbors(r, &mut |c, v| op.push(c, v));
        op.finish_row();
    }
    op
}

impl Layer for Gcn {
    fn forward(&mut self, x: &Matrix, train: bool) -> Matrix {
        self.layer1.forward_into(x, train, &mut self.hidden);
        self.layer2.forward(&self.hidden, train)
    }

    fn forward_into(&mut self, x: &Matrix, train: bool, out: &mut Matrix) {
        self.layer1.forward_into(x, train, &mut self.hidden);
        self.layer2.forward_into(&self.hidden, train, out);
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.backward_into(grad_out, &mut out);
        out
    }

    fn backward_into(&mut self, grad_out: &Matrix, grad_in: &mut Matrix) {
        self.layer2.backward_into(grad_out, &mut self.ghidden);
        self.layer1.backward_into(&self.ghidden, grad_in);
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        self.layer1.visit_params(f);
        self.layer2.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::input_gradient_error;
    use crate::loss::softmax_cross_entropy;
    use crate::optim::Adam;

    /// Two 4-cliques joined by a single edge; perfect community structure.
    fn two_cliques() -> Arc<SparseMatrix> {
        let mut triplets = Vec::new();
        let connect = |a: usize, b: usize, t: &mut Vec<(usize, usize, f64)>| {
            t.push((a, b, 1.0));
            t.push((b, a, 1.0));
        };
        for i in 0..4 {
            for j in (i + 1)..4 {
                connect(i, j, &mut triplets);
                connect(i + 4, j + 4, &mut triplets);
            }
        }
        connect(3, 4, &mut triplets);
        Arc::new(SparseMatrix::from_triplets(8, 8, triplets).sym_normalized_with_self_loops())
    }

    #[test]
    fn gcn_layer_gradient_check() {
        let s = two_cliques();
        let mut rng = Rng::seed_from_u64(111);
        let mut layer = GcnLayer::new(s, 3, 2, Activation::Tanh, &mut rng);
        let x = Matrix::randn(8, 3, 1.0, &mut rng);
        let err = input_gradient_error(&mut layer, &x, 1e-6);
        assert!(err < 1e-6, "gradient error {err}");
    }

    #[test]
    fn two_layer_gradient_check() {
        let s = two_cliques();
        let mut rng = Rng::seed_from_u64(112);
        let mut net = Gcn::new(s, 3, 5, 2, Activation::Identity, &mut rng);
        let x = Matrix::randn(8, 3, 1.0, &mut rng);
        let err = input_gradient_error(&mut net, &x, 1e-6);
        assert!(err < 1e-5, "gradient error {err}");
    }

    #[test]
    fn semi_supervised_classification_learns_communities() {
        // Label one node per clique; the GCN should classify the rest.
        let s = two_cliques();
        let mut rng = Rng::seed_from_u64(113);
        let x = Matrix::randn(8, 4, 1.0, &mut rng);
        let mut net = Gcn::new(s, 4, 8, 2, Activation::Identity, &mut rng);
        let mut opt = Adam::new(0.05);
        let labels = [(0usize, 0usize), (7, 1)];
        for _ in 0..200 {
            let logits = net.forward(&x, true);
            let (_, grad) = softmax_cross_entropy(&logits, &labels);
            net.zero_grad();
            let _ = net.backward(&grad);
            opt.step(&mut net);
        }
        let logits = net.forward(&x, false);
        let preds = logits.argmax_rows();
        for i in 0..4 {
            assert_eq!(preds[i], 0, "node {i} misclassified: {preds:?}");
        }
        for i in 4..8 {
            assert_eq!(preds[i], 1, "node {i} misclassified: {preds:?}");
        }
    }

    #[test]
    fn rows_forward_matches_full_access_bitwise() {
        let s = two_cliques();
        let mut rng = Rng::seed_from_u64(115);
        let mut net = Gcn::new(s.clone(), 3, 6, 2, Activation::Identity, &mut rng);
        let x = Matrix::randn(8, 3, 1.0, &mut rng);
        let mut full = Matrix::zeros(0, 0);
        net.forward_access_into(s.as_ref(), &x, &mut full);
        let full_hidden = net.take_hidden();
        let bits = |m: &Matrix, r: usize| m.row(r).iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for rows in [vec![0usize], vec![3, 4], vec![0, 1, 2, 3, 4, 5, 6, 7]] {
            // Layer 1 rewrites exactly `rows` of a stale hidden matrix.
            let mut hidden = full_hidden.clone();
            for &r in &rows {
                hidden.row_mut(r).fill(f64::NAN);
            }
            net.hidden_rows_access_into(s.as_ref(), &rows, &x, &mut hidden);
            for r in 0..8 {
                assert_eq!(
                    bits(&hidden, r),
                    bits(&full_hidden, r),
                    "hidden row {r} of {rows:?}"
                );
            }
            let mut partial = Matrix::zeros(0, 0);
            net.output_rows_access_into(s.as_ref(), &rows, &hidden, &mut partial);
            for (k, &r) in rows.iter().enumerate() {
                assert_eq!(bits(&partial, k), bits(&full, r), "row {r} of {rows:?}");
            }
        }
    }

    #[test]
    fn hidden_exposed_after_forward() {
        let s = two_cliques();
        let mut rng = Rng::seed_from_u64(114);
        let mut net = Gcn::new(s, 3, 6, 2, Activation::Identity, &mut rng);
        let x = Matrix::randn(8, 3, 1.0, &mut rng);
        let _ = net.forward(&x, false);
        assert_eq!(net.hidden().shape(), (8, 6));
    }
}
