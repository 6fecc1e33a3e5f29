//! K-hop dirty tracking: which nodes' GCN state a delta invalidates.
//!
//! ## Dirty algebra
//!
//! The 2-layer GCN output of node `v` is a function of the normalized
//! operator rows and feature rows inside `v`'s 2-hop closed neighborhood.
//! An edge delta on `{u, v}` changes the degrees of `u` and `v`, hence
//! the `D̃^{-1/2}` factors in every operator row touching them — so the
//! hidden layer of `{u, v} ∪ N(u) ∪ N(v)` (the 1-hop closure) changes,
//! and the output layer of the 2-hop closure of `{u, v}` changes. The
//! closures must be taken in the union of the pre- and post-delta graphs:
//! a removed neighbor's output still depended on the old edge, so callers
//! mark seeds both **before** and **after** applying a structural delta.
//! A feature delta on `v` leaves the operator alone but flows through
//! both propagation hops: the 1-hop closure of `{v}` has a stale hidden
//! layer and the 2-hop closure a stale output, marked once.
//!
//! Every node whose degree a delta changes is a seed (an edge's endpoints,
//! a removed node and its neighbors, a fresh node), so the hidden-stale set
//! also names every stale `D̃^{-1/2}` entry.
//!
//! One BFS per marking yields both sets: the visited set after the first
//! hop is the hidden-stale 1-hop closure, after the second the
//! output-stale 2-hop closure. Marks live in per-node flags, so marking
//! costs the closure's size, not a set insertion per node; draining sorts
//! each list into the ascending order the row forwards
//! ([`gale_nn::Gcn::hidden_rows_access_into`],
//! [`gale_nn::Gcn::output_rows_access_into`]) require, deterministically.

use gale_tensor::NeighborAccess;

/// Receptive-field depth of the 2-layer GCN encoder.
pub const GCN_HOPS: usize = 2;

/// Flag: the node's hidden layer is stale.
const HIDDEN: u8 = 1;
/// Flag: the node's output is stale.
const OUTPUT: u8 = 2;

/// Tracks the nodes whose hidden layer (1-hop closures) and whose output
/// (2-hop closures) are stale. The hidden set is always a subset of the
/// output set.
#[derive(Default)]
pub struct DirtyTracker {
    /// Per-node `HIDDEN | OUTPUT` flags.
    flags: Vec<u8>,
    /// Nodes flagged `HIDDEN`, in marking order.
    hidden: Vec<usize>,
    /// Nodes flagged `OUTPUT`, in marking order.
    output: Vec<usize>,
    /// BFS visited flags; every entry is `false` between markings.
    seen: Vec<bool>,
}

impl DirtyTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes whose output is stale.
    pub fn len(&self) -> usize {
        self.output.len()
    }

    /// Whether no node is stale.
    pub fn is_empty(&self) -> bool {
        self.output.is_empty()
    }

    /// Sizes the per-node arrays for `n` nodes.
    fn grow(&mut self, n: usize) {
        if self.flags.len() < n {
            self.flags.resize(n, 0);
            self.seen.resize(n, false);
        }
    }

    /// Sets `flag` on `node`; returns whether it was newly set.
    fn flag(&mut self, node: usize, flag: u8) -> bool {
        if self.flags[node] & flag != 0 {
            return false;
        }
        self.flags[node] |= flag;
        match flag {
            HIDDEN => self.hidden.push(node),
            _ => self.output.push(node),
        }
        true
    }

    /// Marks the 1-hop closed neighborhood of `seeds` in `view` hidden-stale
    /// and the [`GCN_HOPS`]-hop one output-stale, from one BFS.
    pub fn mark<A: NeighborAccess + ?Sized>(&mut self, view: &A, seeds: &[usize]) {
        self.grow(view.node_count());
        // The BFS visited flags must be local to this call: a node already
        // dirtied by an earlier delta still has neighbors this closure
        // needs to reach, so it cannot block frontier expansion.
        let seen = &mut self.seen;
        let mut visited = Vec::new();
        for &s in seeds {
            if !seen[s] {
                seen[s] = true;
                visited.push(s);
            }
        }
        // `visited[start..]` is the current hop's frontier.
        let mut start = 0;
        let mut closure_1hop = 0;
        for hop in 1..=GCN_HOPS {
            let end = visited.len();
            for i in start..end {
                let v = visited[i];
                view.visit_neighbors(v, &mut |c, _| {
                    if !seen[c] {
                        seen[c] = true;
                        visited.push(c);
                    }
                });
            }
            if hop == 1 {
                closure_1hop = visited.len();
            }
            start = end;
        }
        let mut fresh = 0u64;
        for (k, &v) in visited.iter().enumerate() {
            self.seen[v] = false;
            if k < closure_1hop {
                self.flag(v, HIDDEN);
            }
            if self.flag(v, OUTPUT) {
                fresh += 1;
            }
        }
        gale_obs::counter_add!("stream.dirty_nodes", fresh);
    }

    /// Marks a single node stale with no neighborhood expansion (fresh
    /// isolated nodes).
    pub fn mark_node(&mut self, node: usize) {
        self.grow(node + 1);
        self.flag(node, HIDDEN);
        self.flag(node, OUTPUT);
    }

    /// Drains both sets, each sorted ascending: `(hidden, output)`.
    pub fn take(&mut self) -> (Vec<usize>, Vec<usize>) {
        let mut hidden = std::mem::take(&mut self.hidden);
        let mut output = std::mem::take(&mut self.output);
        for &v in &output {
            self.flags[v] = 0;
        }
        hidden.sort_unstable();
        output.sort_unstable();
        (hidden, output)
    }

    /// Drops every mark (after a full refresh). Also resets the BFS flags,
    /// so a marking a panic cut short leaves nothing behind.
    pub fn clear(&mut self) {
        self.flags.fill(0);
        self.seen.fill(false);
        self.hidden.clear();
        self.output.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gale_tensor::SparseMatrix;

    /// 0-1-2-3-4 path.
    fn path5() -> SparseMatrix {
        let mut t = Vec::new();
        for i in 0..4 {
            t.push((i, i + 1, 1.0));
            t.push((i + 1, i, 1.0));
        }
        SparseMatrix::from_triplets(5, 5, t)
    }

    #[test]
    fn one_and_two_hop_closures_of_an_endpoint() {
        let g = path5();
        let mut d = DirtyTracker::new();
        d.mark(&g, &[0]);
        assert_eq!(d.len(), 3);
        assert_eq!(d.take(), (vec![0, 1], vec![0, 1, 2]));
        assert!(d.is_empty());
    }

    #[test]
    fn marks_accumulate_across_deltas() {
        let g = path5();
        let mut d = DirtyTracker::new();
        d.mark(&g, &[0]);
        d.mark(&g, &[4]);
        d.mark_node(2);
        assert_eq!(d.take(), (vec![0, 1, 2, 3, 4], vec![0, 1, 2, 3, 4]));
        d.mark(&g, &[2]);
        d.clear();
        assert!(d.is_empty());
        assert_eq!(d.take(), (vec![], vec![]));
    }

    #[test]
    fn isolated_seed_marks_itself_only() {
        let g = SparseMatrix::from_triplets(3, 3, vec![(0, 1, 1.0), (1, 0, 1.0)]);
        let mut d = DirtyTracker::new();
        d.mark(&g, &[2]);
        assert_eq!(d.take(), (vec![2], vec![2]));
    }
}
