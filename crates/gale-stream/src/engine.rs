//! The streaming engine: mutations in, lazily-refreshed verdicts out.
//!
//! Owns the [`DeltaGraph`], the feature matrix, the trained GAE encoder,
//! the forward-only [`SganInfer`] lowering of the SGAN discriminator, the
//! frozen input standardizer, and the cached per-node scoring state.
//! Mutations mark k-hop dirty sets; the next score request triggers a
//! neighborhood-local refresh whose outputs are bitwise-equal to
//! rebuilding and re-scoring the mutated graph from scratch with the same
//! model artifacts (gated in `BENCH_stream.json`). The engine keeps the
//! encoder's layer-1 activations and the `D̃^{-1/2}` diagonal for every
//! node, so a refresh recomputes only the entries a delta made stale.
//!
//! A mutation batch applies in full or not at all: [`StreamEngine::apply`]
//! validates every mutation before it applies the first.
//!
//! A removed node is a tombstone: its id stays allocated, but it is never
//! scored again ([`ScoreError::Removed`]), and every later mutation that
//! names it comes back rejected. The tombstone set lives here, not in the
//! graph, so it outlives every compaction.

use crate::admission::{AdmissionConfig, AdmissionFilter, QuarantinedEdge};
use crate::delta::DeltaGraph;
use crate::dirty::DirtyTracker;
use crate::mutation::{Mutation, MutationLog};
use gale_core::{ColumnStandardizer, MemoCache, Sgan, SganInfer};
use gale_json::{json, Value};
use gale_nn::Gae;
use gale_tensor::{Matrix, NeighborAccess, SparseMatrix, SymNormalized, Workspace};
use std::collections::BTreeSet;

/// Edges sampled (deterministically, in row order) from the base graph to
/// seed the admission filter's distance statistics.
const ADMISSION_SEED_CAP: usize = 4096;

/// Rows per forward in a refresh: large enough to amortize each kernel
/// call, small enough to bound the refresh scratch.
const REFRESH_CHUNK: usize = 512;

/// Streaming engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct StreamConfig {
    /// Admission filtering knobs.
    pub admission: AdmissionConfig,
    /// Retained mutation-log tail length.
    pub log_capacity: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            admission: AdmissionConfig::default(),
            log_capacity: 256,
        }
    }
}

/// Rejection reason of a mutation that names a removed node.
pub const REMOVED_NODE: &str = "removed_node";

/// Why [`StreamEngine::score_nodes`] scored nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScoreError {
    /// The id names no node.
    OutOfRange {
        /// The requested id.
        node: usize,
        /// Nodes in the graph, tombstones included.
        nodes: usize,
    },
    /// The node was removed; a tombstone has no verdict.
    Removed {
        /// The requested id.
        node: usize,
    },
}

impl std::fmt::Display for ScoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScoreError::OutOfRange { node, nodes } => {
                write!(f, "node {node} out of range ({nodes} nodes)")
            }
            ScoreError::Removed { node } => write!(f, "node {node} was removed"),
        }
    }
}

/// Lets callers that report errors as strings use `?`.
impl From<ScoreError> for String {
    fn from(e: ScoreError) -> String {
        e.to_string()
    }
}

/// Outcome of one mutation inside an [`StreamEngine::apply`] batch.
#[derive(Debug, Clone)]
pub struct MutationOutcome {
    /// Log sequence number.
    pub seq: u64,
    /// Wire name of the mutation.
    pub kind: &'static str,
    /// Whether it was admitted and applied.
    pub admitted: bool,
    /// Why it was rejected: a quarantine reason label for edges, or
    /// [`REMOVED_NODE`] for a mutation naming a tombstone.
    pub reason: Option<&'static str>,
    /// Id assigned by `add_node` mutations.
    pub assigned_node: Option<usize>,
}

/// Summary of an applied mutation batch.
#[derive(Debug)]
pub struct ApplyReport {
    /// Per-mutation outcomes, in batch order.
    pub outcomes: Vec<MutationOutcome>,
    /// Graph version after the batch.
    pub graph_version: u64,
    /// Dirty-node count after the batch.
    pub dirty: usize,
    /// Whether the batch triggered a compaction.
    pub compacted: bool,
}

/// One node's scoring state, as returned by [`StreamEngine::score_nodes`].
#[derive(Debug, Clone)]
pub struct NodeScore {
    /// The node id.
    pub node: usize,
    /// 3-class probabilities `(error, correct, synthetic)`.
    pub probs: [f64; 3],
    /// Two-class error score (synthetic dropped, renormalized).
    pub score: f64,
    /// Whether the discriminator calls the node erroneous.
    pub erroneous: bool,
    /// Graph version the verdict was computed at.
    pub graph_version: u64,
}

/// The streaming scoring engine.
pub struct StreamEngine {
    graph: DeltaGraph,
    x: Matrix,
    gae: Gae,
    sgan: SganInfer<f64>,
    standardizer: ColumnStandardizer,
    /// Removed nodes; never scored, never mutated again.
    tombstones: BTreeSet<usize>,
    /// The encoder's layer-1 activations, one row per node (rows in the
    /// dirty tracker's hidden set are stale).
    hidden: Matrix,
    /// The `D̃^{-1/2}` diagonal of the graph view (entries of the hidden
    /// set are stale).
    inv_sqrt: Vec<f64>,
    /// Refresh scratch, at most [`REFRESH_CHUNK`] rows per buffer.
    ws: Workspace,
    /// Current 3-class probabilities, one row per node.
    probs: Matrix,
    /// Graph version each node's verdict was computed at.
    verdict_version: Vec<u64>,
    graph_version: u64,
    dirty: DirtyTracker,
    filter: AdmissionFilter,
    log: MutationLog,
    memo: MemoCache,
    /// Nanoseconds spent in incremental refreshes (diagnostics).
    pub refresh_ns: u64,
    /// Number of incremental refreshes run.
    pub refreshes: u64,
}

impl StreamEngine {
    /// Builds an engine and runs the initial full embed + score pass.
    ///
    /// `standardizer` freezes the discriminator-input affine map; pass
    /// `None` to fit it on this graph's `[X | Z]` (the artifact is then
    /// available via [`StreamEngine::standardizer`] for exact-rebuild
    /// comparisons and bundle export). The engine keeps only the
    /// discriminator's forward-only f64 lowering, which scores bit for bit
    /// like `sgan`.
    pub fn new(
        graph: DeltaGraph,
        x: Matrix,
        mut gae: Gae,
        sgan: Sgan,
        standardizer: Option<ColumnStandardizer>,
        cfg: StreamConfig,
    ) -> Result<Self, String> {
        let n = graph.node_count();
        if x.rows() != n {
            return Err(format!("feature rows {} != graph nodes {n}", x.rows()));
        }
        // Initial full embedding over the normalized view; its degree
        // diagonal and hidden layer become the refresh state.
        let mut z = Matrix::zeros(0, 0);
        let op = SymNormalized::new(&graph);
        gae.embed_access(&op, &x, &mut z);
        let inv_sqrt = op.into_inv_sqrt();
        let hidden = gae.encoder_mut().take_hidden();
        let mut inputs = concat_rows(&x, &z);
        let standardizer = match standardizer {
            Some(st) => {
                if st.cols() != inputs.cols() {
                    return Err(format!(
                        "standardizer covers {} columns, inputs have {}",
                        st.cols(),
                        inputs.cols()
                    ));
                }
                st
            }
            None => ColumnStandardizer::fit(&inputs),
        };
        standardizer.apply(&mut inputs);
        if sgan.input_dim() != inputs.cols() {
            return Err(format!(
                "discriminator wants {} inputs, graph provides {}",
                sgan.input_dim(),
                inputs.cols()
            ));
        }
        let mut sgan = sgan.to_infer::<f64>();
        let mut probs = Matrix::zeros(0, 0);
        sgan.probs3_into(&inputs, &mut probs);

        let mut filter = AdmissionFilter::new(cfg.admission);
        seed_admission(&mut filter, &graph, &x);
        let mut memo = MemoCache::new(true, 1e-9);
        memo.ensure_len(n);

        Ok(StreamEngine {
            graph,
            x,
            gae,
            sgan,
            standardizer,
            tombstones: BTreeSet::new(),
            hidden,
            inv_sqrt,
            ws: Workspace::new(),
            probs,
            verdict_version: vec![0; n],
            graph_version: 0,
            dirty: DirtyTracker::new(),
            filter,
            log: MutationLog::new(cfg.log_capacity),
            memo,
            refresh_ns: 0,
            refreshes: 0,
        })
    }

    /// Current graph version (bumped once per applied mutation).
    pub fn graph_version(&self) -> u64 {
        self.graph_version
    }

    /// Nodes in the graph (tombstones included).
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Currently-dirty node count.
    pub fn dirty_count(&self) -> usize {
        self.dirty.len()
    }

    /// Compactions the delta graph has performed.
    pub fn graph_compactions(&self) -> u64 {
        self.graph.compactions()
    }

    /// Edges the admission filter has quarantined.
    pub fn quarantined_edges(&self) -> u64 {
        self.filter.quarantined
    }

    /// The frozen input standardizer (a model artifact).
    pub fn standardizer(&self) -> &ColumnStandardizer {
        &self.standardizer
    }

    /// The current feature matrix.
    pub fn features(&self) -> &Matrix {
        &self.x
    }

    /// The current graph view as an in-memory CSR (from-scratch rebuild
    /// comparisons; bitwise-equal to the view by the compaction argument).
    pub fn snapshot_graph(&self) -> SparseMatrix {
        let n = self.graph.node_count();
        let mut triplets = Vec::with_capacity(self.graph.view_nnz());
        for r in 0..n {
            self.graph
                .visit_neighbors(r, &mut |c, v| triplets.push((r, c, v)));
        }
        SparseMatrix::from_triplets(n, n, triplets)
    }

    /// Applies a mutation batch: admission-filters edges, mutates the
    /// overlay and features, marks k-hop dirty sets, and maybe compacts.
    /// Verdicts are *not* refreshed here — that happens lazily on the
    /// next score request. An invalid mutation anywhere in the batch fails
    /// the whole batch before any of it is applied.
    pub fn apply(&mut self, muts: &[Mutation]) -> Result<ApplyReport, String> {
        self.validate(muts)?;
        let outcomes: Vec<MutationOutcome> = muts.iter().map(|m| self.apply_one(m)).collect();
        let compacted = self.graph.maybe_compact();
        self.memo.ensure_len(self.graph.node_count());
        gale_obs::counter_add!("stream.mutations", muts.len() as u64);
        Ok(ApplyReport {
            outcomes,
            graph_version: self.graph_version,
            dirty: self.dirty.len(),
            compacted,
        })
    }

    /// Checks a whole batch against the graph as the batch would grow it:
    /// every named node exists (counting the batch's own `add_node`s),
    /// every attribute row has the feature width, and no edge is a
    /// self-loop.
    fn validate(&self, muts: &[Mutation]) -> Result<(), String> {
        let mut n = self.graph.node_count();
        let width = self.x.cols();
        for m in muts {
            match m {
                Mutation::AddNode { attrs } | Mutation::UpdateAttrs { attrs, .. }
                    if attrs.len() != width =>
                {
                    return Err(format!(
                        "{} attrs width {} != feature width {width}",
                        m.kind(),
                        attrs.len()
                    ));
                }
                Mutation::AddEdge { u, v, .. } if u == v => {
                    return Err("add_edge: self-loops are implicit".into());
                }
                _ => {}
            }
            if let Some(node) = named(m).find(|&node| node >= n) {
                return Err(format!("node {node} out of range ({n} nodes)"));
            }
            if let Mutation::AddNode { .. } = m {
                n += 1;
            }
        }
        Ok(())
    }

    /// Applies one mutation of a batch [`StreamEngine::validate`] passed.
    fn apply_one(&mut self, m: &Mutation) -> MutationOutcome {
        let kind = m.kind();
        if named(m).any(|node| self.tombstones.contains(&node)) {
            let seq = self.log.record(m.clone(), false, self.graph_version);
            return MutationOutcome {
                seq,
                kind,
                admitted: false,
                reason: Some(REMOVED_NODE),
                assigned_node: None,
            };
        }
        let mut assigned_node = None;
        let mut admitted = true;
        let mut reason = None;
        match m {
            Mutation::AddNode { attrs } => {
                let id = self.graph.add_node();
                self.x.resize(id + 1, self.x.cols());
                self.x.set_row(id, attrs);
                self.memo.ensure_len(id + 1);
                // Placeholders: the fresh node is marked stale below.
                self.hidden.resize(id + 1, self.hidden.cols());
                self.inv_sqrt.push(0.0);
                self.probs.resize(id + 1, self.probs.cols());
                self.verdict_version.push(0);
                self.graph_version += 1;
                self.dirty.mark_node(id);
                assigned_node = Some(id);
            }
            Mutation::RemoveNode { node } => {
                let mut seeds = vec![*node];
                self.graph.visit_neighbors(*node, &mut |c, _| seeds.push(c));
                self.dirty.mark(&self.graph, &seeds);
                self.graph.remove_node(*node);
                self.dirty.mark(&self.graph, &seeds);
                self.tombstones.insert(*node);
                self.graph_version += 1;
            }
            Mutation::AddEdge { u, v, weight } => {
                let dist = self.memo.distance(&self.x, *u, *v);
                match self
                    .filter
                    .assess(dist, self.graph.degree(*u), self.graph.degree(*v))
                {
                    Some(why) => {
                        admitted = false;
                        reason = Some(why.label());
                        self.filter.quarantine(QuarantinedEdge {
                            seq: 0, // patched after the log assigns one
                            u: *u,
                            v: *v,
                            distance: dist,
                            reason: why,
                        });
                    }
                    None => {
                        let seeds = [*u, *v];
                        self.dirty.mark(&self.graph, &seeds);
                        self.graph.add_edge(*u, *v, *weight);
                        self.dirty.mark(&self.graph, &seeds);
                        self.filter.observe(dist);
                        self.graph_version += 1;
                    }
                }
            }
            Mutation::RemoveEdge { u, v } => {
                let seeds = [*u, *v];
                self.dirty.mark(&self.graph, &seeds);
                self.graph.remove_edge(*u, *v);
                self.dirty.mark(&self.graph, &seeds);
                self.graph_version += 1;
            }
            Mutation::UpdateAttrs { node, attrs } => {
                self.x.set_row(*node, attrs);
                self.memo.invalidate_nodes(&[*node]);
                // The operator is unchanged; features flow through both
                // hops, so one post-apply marking covers the closure.
                self.dirty.mark(&self.graph, &[*node]);
                self.graph_version += 1;
            }
        }
        let seq = self.log.record(m.clone(), admitted, self.graph_version);
        MutationOutcome {
            seq,
            kind,
            admitted,
            reason,
            assigned_node,
        }
    }

    /// Refreshes every dirty node's probabilities and verdict via the
    /// neighborhood-local forward. Returns the number refreshed.
    ///
    /// The hidden-stale rows get a fresh `D̃^{-1/2}` entry and layer-1
    /// row; then layer 2 and the discriminator run over the output-stale
    /// rows, reading the kept hidden layer. Nothing here is `O(n)`.
    pub fn refresh(&mut self) -> usize {
        if self.dirty.is_empty() {
            return 0;
        }
        let started = std::time::Instant::now();
        let (hidden_rows, rows) = self.dirty.take();
        for &r in &hidden_rows {
            self.inv_sqrt[r] = SymNormalized::inv_sqrt_of(&self.graph, r);
        }
        let op = SymNormalized::from_inv_sqrt(&self.graph, std::mem::take(&mut self.inv_sqrt));
        // Rows run in fixed-size chunks through pooled buffers: every row
        // is computed alone, so chunking keeps the bits, and the scratch
        // stays bounded and allocated once. Fresh refresh-sized
        // temporaries of varying size fragment the heap and raise peak RSS.
        let encoder = self.gae.encoder_mut();
        for chunk in hidden_rows.chunks(REFRESH_CHUNK) {
            encoder.hidden_rows_access_into(&op, chunk, &self.x, &mut self.hidden);
        }
        let dx = self.x.cols();
        let mut z = self.ws.take(0, 0);
        let mut inputs = self.ws.take(0, 0);
        let mut probs = self.ws.take(0, 0);
        for chunk in rows.chunks(REFRESH_CHUNK) {
            encoder.output_rows_access_into(&op, chunk, &self.hidden, &mut z);
            inputs.resize(chunk.len(), dx + z.cols());
            for (k, &v) in chunk.iter().enumerate() {
                let row = inputs.row_mut(k);
                row[..dx].copy_from_slice(self.x.row(v));
                row[dx..].copy_from_slice(z.row(k));
                self.standardizer.apply_row(row);
            }
            self.sgan.probs3_into(&inputs, &mut probs);
            for (k, &v) in chunk.iter().enumerate() {
                self.probs.set_row(v, probs.row(k));
                self.verdict_version[v] = self.graph_version;
            }
        }
        self.inv_sqrt = op.into_inv_sqrt();
        for m in [z, inputs, probs] {
            self.ws.give(m);
        }
        let elapsed = started.elapsed();
        self.refresh_ns += elapsed.as_nanos() as u64;
        self.refreshes += 1;
        gale_obs::counter_add!("stream.refreshes", 1);
        rows.len()
    }

    /// Recomputes every node's probabilities and verdict from scratch over
    /// the current graph view — the exact computation
    /// [`StreamEngine::new`] runs at construction — and resets the refresh
    /// state with it: the `D̃^{-1/2}` diagonal, the hidden layer, and both
    /// dirty sets. This is the control the incremental
    /// [`StreamEngine::refresh`] is timed and bit-compared against in
    /// `BENCH_stream.json`. Returns the node count.
    pub fn rescore_full(&mut self) -> usize {
        let mut z = Matrix::zeros(0, 0);
        let op = SymNormalized::new(&self.graph);
        self.gae.embed_access(&op, &self.x, &mut z);
        self.inv_sqrt = op.into_inv_sqrt();
        self.hidden = self.gae.encoder_mut().take_hidden();
        let mut inputs = concat_rows(&self.x, &z);
        self.standardizer.apply(&mut inputs);
        self.sgan.probs3_into(&inputs, &mut self.probs);
        for version in &mut self.verdict_version {
            *version = self.graph_version;
        }
        self.dirty.clear();
        self.graph.node_count()
    }

    /// Scores the requested nodes, lazily refreshing dirty state first.
    /// Fails, scoring nothing, on the first id that names no node or a
    /// removed one.
    pub fn score_nodes(&mut self, nodes: &[usize]) -> Result<Vec<NodeScore>, ScoreError> {
        let n = self.graph.node_count();
        for &node in nodes {
            if node >= n {
                return Err(ScoreError::OutOfRange { node, nodes: n });
            }
            if self.tombstones.contains(&node) {
                return Err(ScoreError::Removed { node });
            }
        }
        self.refresh();
        Ok(nodes.iter().map(|&v| self.node_score(v)).collect())
    }

    /// One node's current (refreshed) scoring state. Callers must have
    /// refreshed first; [`StreamEngine::score_nodes`] does.
    fn node_score(&self, v: usize) -> NodeScore {
        let row = self.probs.row(v);
        let (pe, pc, ps) = (row[0], row[1], row[2]);
        NodeScore {
            node: v,
            probs: [pe, pc, ps],
            // Mirrors gale-serve's verdict derivation exactly.
            score: pe / (pe + pc).max(1e-12),
            erroneous: pe > pc,
            graph_version: self.verdict_version[v],
        }
    }

    /// Every node's verdict, refreshed, tombstones included (a tombstone
    /// scores as an isolated node). For equality gates in the bench.
    pub fn all_scores(&mut self) -> Vec<NodeScore> {
        self.refresh();
        (0..self.graph.node_count())
            .map(|v| self.node_score(v))
            .collect()
    }

    /// Introspection document for `/debug/stream`.
    pub fn debug_json(&self) -> Value {
        let ring: Vec<Value> = self
            .filter
            .ring()
            .map(|e| {
                json!({
                    "seq": e.seq as f64,
                    "u": e.u as f64,
                    "v": e.v as f64,
                    "distance": e.distance,
                    "reason": e.reason.label(),
                })
            })
            .collect();
        let tail: Vec<Value> = self
            .log
            .tail()
            .map(|e| {
                json!({
                    "seq": e.seq as f64,
                    "graph_version": e.graph_version as f64,
                    "op": e.mutation.kind(),
                    "admitted": e.admitted,
                })
            })
            .collect();
        json!({
            "graph_version": self.graph_version as f64,
            "nodes": self.graph.node_count() as f64,
            "view_nnz": self.graph.view_nnz() as f64,
            "overlay_churn": self.graph.churn() as f64,
            "compactions": self.graph.compactions() as f64,
            "dirty_nodes": self.dirty.len() as f64,
            "mutations_total": self.log.total as f64,
            "mutations_applied": self.log.applied as f64,
            "quarantined_edges": self.filter.quarantined as f64,
            "admission": {
                "samples": self.filter.samples() as f64,
                "mean_distance": self.filter.mean(),
                "std_distance": self.filter.std(),
            },
            "refreshes": self.refreshes as f64,
            "refresh_us_total": (self.refresh_ns / 1_000) as f64,
            "quarantine_ring": Value::Array(ring),
            "log_tail": Value::Array(tail),
        })
    }
}

/// The existing nodes a mutation names (none for `add_node`).
fn named(m: &Mutation) -> impl Iterator<Item = usize> {
    let pair = match *m {
        Mutation::AddNode { .. } => [None, None],
        Mutation::RemoveNode { node } | Mutation::UpdateAttrs { node, .. } => [Some(node), None],
        Mutation::AddEdge { u, v, .. } | Mutation::RemoveEdge { u, v } => [Some(u), Some(v)],
    };
    pair.into_iter().flatten()
}

/// `[x | z]` row-wise concatenation (unstandardized).
fn concat_rows(x: &Matrix, z: &Matrix) -> Matrix {
    assert_eq!(x.rows(), z.rows(), "concat_rows: row mismatch");
    let (dx, dz) = (x.cols(), z.cols());
    let mut out = Matrix::zeros(x.rows(), dx + dz);
    for r in 0..x.rows() {
        let row = out.row_mut(r);
        row[..dx].copy_from_slice(x.row(r));
        row[dx..].copy_from_slice(z.row(r));
    }
    out
}

/// Seeds the admission distance statistics from the base graph's edges,
/// deterministically: undirected edges in ascending `(row, col)` order,
/// capped at [`ADMISSION_SEED_CAP`].
fn seed_admission(filter: &mut AdmissionFilter, graph: &DeltaGraph, x: &Matrix) {
    let mut seen = 0usize;
    'rows: for r in 0..graph.node_count() {
        let mut cols = Vec::new();
        graph.visit_neighbors(r, &mut |c, _| {
            if c > r {
                cols.push(c);
            }
        });
        for c in cols {
            filter.observe(gale_tensor::distance::euclidean(x.row(r), x.row(c)));
            seen += 1;
            if seen >= ADMISSION_SEED_CAP {
                break 'rows;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::BaseGraph;
    use gale_core::SganConfig;
    use gale_nn::{Activation, Gcn};
    use gale_tensor::Rng;

    /// An 8-node ring with random features and untrained models.
    fn ring_engine() -> StreamEngine {
        let n = 8;
        let mut rng = Rng::seed_from_u64(17);
        let ring: Vec<(usize, usize, f64)> = (0..n)
            .flat_map(|i| [(i, (i + 1) % n, 1.0), ((i + 1) % n, i, 1.0)])
            .collect();
        let gae = Gae::from_parts(
            Gcn::new_detached(3, 4, 2, Activation::Identity, &mut rng),
            0.0,
        );
        let sgan_cfg = SganConfig {
            d_hidden: vec![4],
            g_hidden: vec![4],
            ..Default::default()
        };
        StreamEngine::new(
            DeltaGraph::new(BaseGraph::Mem(SparseMatrix::from_triplets(n, n, ring))),
            Matrix::randn(n, 3, 1.0, &mut rng),
            gae,
            Sgan::new(5, &sgan_cfg, &mut rng),
            None,
            StreamConfig::default(),
        )
        .unwrap()
    }

    /// Asserts node 3 is a tombstone: unscorable, and every mutation that
    /// names it is rejected without touching the graph or its features.
    fn assert_tombstoned(engine: &mut StreamEngine) {
        assert_eq!(
            engine.score_nodes(&[0, 3]).unwrap_err(),
            ScoreError::Removed { node: 3 }
        );
        assert_eq!(engine.score_nodes(&[0, 4]).unwrap().len(), 2);
        let (version, row) = (engine.graph_version(), engine.features().row(3).to_vec());
        let report = engine
            .apply(&[
                Mutation::AddEdge {
                    u: 4,
                    v: 3,
                    weight: 1.0,
                },
                Mutation::UpdateAttrs {
                    node: 3,
                    attrs: vec![0.0; 3],
                },
                Mutation::RemoveEdge { u: 3, v: 2 },
                Mutation::RemoveNode { node: 3 },
            ])
            .unwrap();
        for o in &report.outcomes {
            assert!(!o.admitted, "{} naming a tombstone was admitted", o.kind);
            assert_eq!(o.reason, Some(REMOVED_NODE));
        }
        assert_eq!(report.graph_version, version);
        assert_eq!(engine.features().row(3), &row[..]);
        assert!(!engine.graph.has_edge(3, 4));
    }

    #[test]
    fn a_batch_with_a_bad_trailing_mutation_applies_nothing() {
        let mut engine = ring_engine();
        let before = (engine.debug_json().to_string(), engine.features().clone());
        let attrs = vec![7.0; 3];
        for batch in [
            vec![
                Mutation::UpdateAttrs {
                    node: 1,
                    attrs: attrs.clone(),
                },
                Mutation::AddEdge {
                    u: 5,
                    v: 5,
                    weight: 1.0,
                },
            ],
            vec![
                Mutation::AddNode {
                    attrs: attrs.clone(),
                },
                Mutation::AddEdge {
                    u: 0,
                    v: 9,
                    weight: 1.0,
                },
            ],
            vec![
                Mutation::RemoveEdge { u: 0, v: 1 },
                Mutation::UpdateAttrs {
                    node: 2,
                    attrs: vec![1.0],
                },
            ],
        ] {
            assert!(engine.apply(&batch).is_err(), "{batch:?} applied");
            assert_eq!(engine.graph_version(), 0);
            assert_eq!(engine.node_count(), 8);
            assert_eq!(engine.dirty_count(), 0);
            assert!(engine.features() == &before.1, "features moved");
            assert_eq!(engine.debug_json().to_string(), before.0);
        }
        // The batch's own add_node makes its id valid for later mutations.
        let report = engine
            .apply(&[
                Mutation::AddNode {
                    attrs: attrs.clone(),
                },
                Mutation::UpdateAttrs { node: 8, attrs },
            ])
            .unwrap();
        assert_eq!(report.outcomes[0].assigned_node, Some(8));
        assert_eq!(report.graph_version, 2);
    }

    #[test]
    fn removed_nodes_stay_tombstoned_across_compaction() {
        let mut engine = ring_engine();
        let report = engine.apply(&[Mutation::RemoveNode { node: 3 }]).unwrap();
        assert!(report.outcomes[0].admitted);
        assert_tombstoned(&mut engine);
        // Compaction folds the overlay into a fresh CSR in which node 3 is
        // just an isolated row; the tombstone must survive it.
        engine.graph.compact();
        assert_eq!(engine.graph_compactions(), 1);
        assert_tombstoned(&mut engine);
        assert_eq!(
            engine.score_nodes(&[99]).unwrap_err(),
            ScoreError::OutOfRange { node: 99, nodes: 8 }
        );
    }
}
