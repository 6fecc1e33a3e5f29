//! Typed graph mutations and the append-only mutation log.
//!
//! Mutations arrive over the wire as JSON (`POST /mutate` bodies) and are
//! replayed from the log during recovery, so the codec lives next to the
//! type. Edge mutations are undirected — the delta graph mirrors every
//! edge, matching the batch pipeline's symmetric adjacency.

use gale_json::{json, Value};

/// One typed graph delta.
#[derive(Debug, Clone, PartialEq)]
pub enum Mutation {
    /// Appends a fresh isolated node with the given feature row.
    AddNode {
        /// Feature row for the new node; must match the engine's width.
        attrs: Vec<f64>,
    },
    /// Detaches a node: all incident edges are removed and its row becomes
    /// a tombstone. Node ids are stable — the row is never renumbered.
    RemoveNode {
        /// The node to detach.
        node: usize,
    },
    /// Inserts (or re-weights) the undirected edge `{u, v}`.
    AddEdge {
        /// One endpoint.
        u: usize,
        /// The other endpoint.
        v: usize,
        /// Edge weight (the batch pipeline uses 1.0).
        weight: f64,
    },
    /// Deletes the undirected edge `{u, v}` if present.
    RemoveEdge {
        /// One endpoint.
        u: usize,
        /// The other endpoint.
        v: usize,
    },
    /// Replaces a node's feature row.
    UpdateAttrs {
        /// The node whose features change.
        node: usize,
        /// The replacement feature row.
        attrs: Vec<f64>,
    },
}

impl Mutation {
    /// The mutation's wire name (also the metrics label).
    pub fn kind(&self) -> &'static str {
        match self {
            Mutation::AddNode { .. } => "add_node",
            Mutation::RemoveNode { .. } => "remove_node",
            Mutation::AddEdge { .. } => "add_edge",
            Mutation::RemoveEdge { .. } => "remove_edge",
            Mutation::UpdateAttrs { .. } => "update_attrs",
        }
    }

    /// Serializes to the wire form.
    pub fn to_json(&self) -> Value {
        match self {
            Mutation::AddNode { attrs } => json!({
                "op": "add_node",
                "attrs": attrs.iter().map(|&v| Value::from(v)).collect::<Vec<_>>(),
            }),
            Mutation::RemoveNode { node } => json!({
                "op": "remove_node",
                "node": *node,
            }),
            Mutation::AddEdge { u, v, weight } => json!({
                "op": "add_edge",
                "u": *u,
                "v": *v,
                "weight": *weight,
            }),
            Mutation::RemoveEdge { u, v } => json!({
                "op": "remove_edge",
                "u": *u,
                "v": *v,
            }),
            Mutation::UpdateAttrs { node, attrs } => json!({
                "op": "update_attrs",
                "node": *node,
                "attrs": attrs.iter().map(|&v| Value::from(v)).collect::<Vec<_>>(),
            }),
        }
    }

    /// Parses one mutation from its wire form.
    pub fn from_json(v: &Value) -> Result<Mutation, String> {
        let op = v
            .get("op")
            .and_then(Value::as_str)
            .ok_or("mutation needs a string `op`")?;
        let node = |field: &str| -> Result<usize, String> {
            v.get(field)
                .and_then(Value::as_u64)
                .map(|n| n as usize)
                .ok_or_else(|| format!("`{op}` needs a non-negative integer `{field}`"))
        };
        let attrs = || -> Result<Vec<f64>, String> {
            v.get("attrs")
                .and_then(Value::as_array)
                .ok_or_else(|| format!("`{op}` needs a numeric array `attrs`"))?
                .iter()
                .map(|e| match e.as_f64() {
                    None => Err(format!("`{op}`: non-numeric attr")),
                    Some(a) if !a.is_finite() => Err(format!("`{op}`: attrs must be finite")),
                    Some(a) => Ok(a),
                })
                .collect()
        };
        match op {
            "add_node" => Ok(Mutation::AddNode { attrs: attrs()? }),
            "remove_node" => Ok(Mutation::RemoveNode {
                node: node("node")?,
            }),
            "add_edge" => {
                let weight = match v.get("weight") {
                    None => 1.0,
                    Some(w) => w.as_f64().ok_or("`add_edge`: non-numeric weight")?,
                };
                if !weight.is_finite() {
                    return Err("`add_edge`: weight must be finite".into());
                }
                Ok(Mutation::AddEdge {
                    u: node("u")?,
                    v: node("v")?,
                    weight,
                })
            }
            "remove_edge" => Ok(Mutation::RemoveEdge {
                u: node("u")?,
                v: node("v")?,
            }),
            "update_attrs" => Ok(Mutation::UpdateAttrs {
                node: node("node")?,
                attrs: attrs()?,
            }),
            other => Err(format!("unknown mutation op `{other}`")),
        }
    }

    /// Parses a `/mutate` request body: `{"mutations": [...]}`.
    pub fn parse_batch(body: &str) -> Result<Vec<Mutation>, String> {
        let v = gale_json::from_str(body).map_err(|e| format!("bad json: {e}"))?;
        let list = v
            .get("mutations")
            .and_then(Value::as_array)
            .ok_or("body needs a `mutations` array")?;
        list.iter().map(Mutation::from_json).collect()
    }
}

/// One applied (or rejected) mutation with its position in the stream.
#[derive(Debug, Clone)]
pub struct LogEntry {
    /// Monotonic sequence number (1-based; 0 = nothing applied).
    pub seq: u64,
    /// The graph version after this mutation was applied (unchanged for
    /// rejected mutations).
    pub graph_version: u64,
    /// The mutation itself.
    pub mutation: Mutation,
    /// Whether the admission filter let it through.
    pub admitted: bool,
}

/// Append-only in-memory mutation log with a bounded tail.
///
/// The full history is summarized by counters; only the most recent
/// `capacity` entries are kept for introspection (`/debug/stream`).
pub struct MutationLog {
    tail: std::collections::VecDeque<LogEntry>,
    capacity: usize,
    next_seq: u64,
    /// Total mutations ever offered, admitted or not.
    pub total: u64,
    /// Total mutations admitted and applied.
    pub applied: u64,
}

impl MutationLog {
    /// A log keeping the `capacity` most recent entries.
    pub fn new(capacity: usize) -> Self {
        MutationLog {
            tail: std::collections::VecDeque::with_capacity(capacity.min(1024)),
            capacity: capacity.max(1),
            next_seq: 1,
            total: 0,
            applied: 0,
        }
    }

    /// Records a mutation outcome; returns its sequence number.
    pub fn record(&mut self, mutation: Mutation, admitted: bool, graph_version: u64) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.total += 1;
        if admitted {
            self.applied += 1;
        }
        if self.tail.len() == self.capacity {
            self.tail.pop_front();
        }
        self.tail.push_back(LogEntry {
            seq,
            graph_version,
            mutation,
            admitted,
        });
        seq
    }

    /// The retained tail, oldest first.
    pub fn tail(&self) -> impl Iterator<Item = &LogEntry> {
        self.tail.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrip_every_variant() {
        let cases = [
            Mutation::AddNode {
                attrs: vec![1.0, -2.5],
            },
            Mutation::RemoveNode { node: 7 },
            Mutation::AddEdge {
                u: 1,
                v: 2,
                weight: 0.5,
            },
            Mutation::RemoveEdge { u: 3, v: 0 },
            Mutation::UpdateAttrs {
                node: 4,
                attrs: vec![0.0, 9.25],
            },
        ];
        for m in cases {
            let back = Mutation::from_json(&m.to_json()).unwrap();
            assert_eq!(back, m);
        }
    }

    #[test]
    fn batch_parsing_defaults_edge_weight() {
        let body = r#"{"mutations":[{"op":"add_edge","u":0,"v":1}]}"#;
        let batch = Mutation::parse_batch(body).unwrap();
        assert_eq!(
            batch,
            vec![Mutation::AddEdge {
                u: 0,
                v: 1,
                weight: 1.0
            }]
        );
    }

    #[test]
    fn bad_bodies_are_rejected() {
        assert!(Mutation::parse_batch("{}").is_err());
        assert!(Mutation::parse_batch(r#"{"mutations":[{"op":"warp"}]}"#).is_err());
        assert!(
            Mutation::parse_batch(r#"{"mutations":[{"op":"add_edge","u":-1,"v":1}]}"#).is_err()
        );
    }

    #[test]
    fn non_finite_attrs_are_rejected_at_decode() {
        for attrs in ["[1e999, 0]", "[0, -1e999]"] {
            for op in [r#""add_node""#, r#""update_attrs", "node": 1"#] {
                let body = format!(r#"{{"mutations":[{{"op":{op},"attrs":{attrs}}}]}}"#);
                let err = Mutation::parse_batch(&body).unwrap_err();
                assert!(err.contains("attrs must be finite"), "{body}: {err}");
            }
        }
        let weight = r#"{"mutations":[{"op":"add_edge","u":0,"v":1,"weight":1e999}]}"#;
        assert!(Mutation::parse_batch(weight)
            .unwrap_err()
            .contains("finite"));
        // Huge but finite attrs still decode.
        let body = r#"{"mutations":[{"op":"add_node","attrs":[1e308, -1e308]}]}"#;
        assert!(Mutation::parse_batch(body).is_ok());
    }

    #[test]
    fn log_keeps_bounded_tail() {
        let mut log = MutationLog::new(2);
        for i in 0..5u64 {
            log.record(Mutation::RemoveNode { node: i as usize }, i % 2 == 0, i);
        }
        assert_eq!(log.total, 5);
        assert_eq!(log.applied, 3);
        let seqs: Vec<u64> = log.tail().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![4, 5]);
    }
}
