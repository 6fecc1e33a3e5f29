//! Streaming endpoints over real sockets: `/mutate` applies deltas and
//! bumps the graph version, node-mode `/score` lazily refreshes dirty
//! verdicts and stamps them with the version, `/debug/stream` exposes the
//! quarantine ring and mutation log, removed nodes answer 410 and reject
//! later mutations, and a server booted *without* a stream engine answers
//! 404 on the stream paths.

use gale_core::{Sgan, SganConfig};
use gale_json::Value;
use gale_nn::{Activation, Gae, Gcn};
use gale_serve::{serve, serve_with_stream, ServeConfig};
use gale_stream::{BaseGraph, CompactionPolicy, DeltaGraph, StreamConfig, StreamEngine};
use gale_tensor::{Matrix, Rng, SparseMatrix};
use std::io::{Read, Write};
use std::net::TcpStream;

const DX: usize = 4;
const DZ: usize = 3;

fn engine(n: usize, seed: u64) -> StreamEngine {
    engine_with(n, seed, CompactionPolicy::default())
}

fn engine_with(n: usize, seed: u64, policy: CompactionPolicy) -> StreamEngine {
    let mut rng = Rng::seed_from_u64(seed);
    let mut t = Vec::new();
    for i in 0..n {
        let j = (i + 1) % n;
        t.push((i, j, 1.0));
        t.push((j, i, 1.0));
    }
    let a = SparseMatrix::from_triplets(n, n, t);
    let x = Matrix::randn(n, DX, 1.0, &mut rng);
    let gae = Gae::from_parts(
        Gcn::new_detached(DX, 6, DZ, Activation::Identity, &mut rng),
        0.0,
    );
    let sgan = Sgan::new(
        DX + DZ,
        &SganConfig {
            d_hidden: vec![8, 5],
            g_hidden: vec![8],
            ..Default::default()
        },
        &mut rng,
    );
    StreamEngine::new(
        DeltaGraph::with_policy(BaseGraph::Mem(a), policy),
        x,
        gae,
        sgan,
        None,
        StreamConfig::default(),
    )
    .unwrap()
}

fn shard_model(seed: u64) -> Sgan {
    let mut rng = Rng::seed_from_u64(seed);
    Sgan::new(
        DX + DZ,
        &SganConfig {
            d_hidden: vec![8, 5],
            g_hidden: vec![8],
            ..Default::default()
        },
        &mut rng,
    )
}

fn request(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn exchange(addr: std::net::SocketAddr, raw: &[u8]) -> (u16, Value) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(raw).unwrap();
    let mut response = Vec::new();
    stream.read_to_end(&mut response).unwrap();
    let text = String::from_utf8(response).unwrap();
    let status: u16 = text.split_whitespace().nth(1).unwrap().parse().unwrap();
    let body = text.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or("");
    let doc = if body.trim().is_empty() {
        Value::Null
    } else {
        gale_json::from_str(body.trim()).unwrap()
    };
    (status, doc)
}

#[test]
fn mutate_then_rescore_round_trip() {
    let handle = serve_with_stream(
        shard_model(5),
        &ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..Default::default()
        },
        Some(engine(16, 5)),
    )
    .unwrap();
    let addr = handle.addr();

    // Baseline verdicts at graph version 0.
    let (status, doc) = exchange(addr, &request("POST", "/score", r#"{"nodes": [0, 3, 9]}"#));
    assert_eq!(status, 200);
    assert_eq!(doc.get("graph_version").and_then(Value::as_u64), Some(0));
    let before = doc.get("error_scores").unwrap().clone();

    // A mutation batch: one edge plus a feature rewrite.
    let (status, doc) = exchange(
        addr,
        &request(
            "POST",
            "/mutate",
            r#"{"mutations": [
                {"op": "add_edge", "u": 0, "v": 9},
                {"op": "update_attrs", "node": 3, "attrs": [9.0, -9.0, 9.0, -9.0]}
            ]}"#,
        ),
    );
    assert_eq!(status, 200, "mutate failed: {doc:?}");
    assert_eq!(doc.get("graph_version").and_then(Value::as_u64), Some(2));
    assert!(doc.get("dirty_nodes").and_then(Value::as_u64).unwrap() > 0);
    let outcomes = doc.get("outcomes").and_then(Value::as_array).unwrap();
    assert_eq!(outcomes.len(), 2);

    // Re-score: verdicts refresh lazily and carry the new version.
    let (status, doc) = exchange(addr, &request("POST", "/score", r#"{"nodes": [0, 3, 9]}"#));
    assert_eq!(status, 200);
    assert_eq!(doc.get("graph_version").and_then(Value::as_u64), Some(2));
    for v in doc.get("graph_versions").and_then(Value::as_array).unwrap() {
        assert_eq!(v.as_u64(), Some(2), "stale verdict version");
    }
    let after = doc.get("error_scores").unwrap();
    assert_ne!(
        format!("{before}"),
        format!("{after}"),
        "mutations around nodes 0/3/9 must change their scores"
    );

    // Feature-body scoring still rides the shard pool on the same path.
    let (status, doc) = exchange(
        addr,
        &request(
            "POST",
            "/score",
            r#"{"features": [[0.5, -0.5, 0.25, 0.0, 1.0, -1.0, 0.125]]}"#,
        ),
    );
    assert_eq!(status, 200, "feature body rejected: {doc:?}");
    assert!(doc.get("model_version").is_some());

    // Introspection shows the applied mutations.
    let (status, doc) = exchange(addr, &request("GET", "/debug/stream", ""));
    assert_eq!(status, 200);
    assert_eq!(
        doc.get("mutations_total").and_then(Value::as_f64),
        Some(2.0)
    );
    assert_eq!(doc.get("graph_version").and_then(Value::as_f64), Some(2.0));

    handle.shutdown();
}

#[test]
fn invalid_mutations_are_rejected_not_applied() {
    let handle = serve_with_stream(
        shard_model(6),
        &ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..Default::default()
        },
        Some(engine(8, 6)),
    )
    .unwrap();
    let addr = handle.addr();

    for body in [
        r#"{"mutations": [{"op": "warp", "u": 0}]}"#,
        r#"{"mutations": [{"op": "add_edge", "u": 0, "v": 999}]}"#,
        r#"{"mutations": [{"op": "add_node", "attrs": [1e999, 0, 0, 0]}]}"#,
        r#"{"mutations": [{"op": "update_attrs", "node": 1, "attrs": [0, 0, -1e999, 0]}]}"#,
        r#"{"nope": true}"#,
    ] {
        let (status, _) = exchange(addr, &request("POST", "/mutate", body));
        assert_eq!(status, 400, "accepted bad body {body}");
    }
    let (status, _) = exchange(addr, &request("POST", "/score", r#"{"nodes": [999]}"#));
    assert_eq!(status, 400);
    let (status, _) = exchange(addr, &request("GET", "/mutate", ""));
    assert_eq!(status, 405, "GET /mutate must be method-not-allowed");

    // Nothing above may have moved the graph version.
    let (_, doc) = exchange(addr, &request("GET", "/debug/stream", ""));
    assert_eq!(doc.get("graph_version").and_then(Value::as_f64), Some(0.0));
    handle.shutdown();
}

#[test]
fn a_batch_with_a_bad_trailing_mutation_changes_nothing() {
    let handle = serve_with_stream(
        shard_model(10),
        &ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..Default::default()
        },
        Some(engine(8, 10)),
    )
    .unwrap();
    let addr = handle.addr();
    let score = || exchange(addr, &request("POST", "/score", r#"{"nodes": [0, 1, 2]}"#));
    let debug = || exchange(addr, &request("GET", "/debug/stream", "")).1;
    let (status, scores_before) = score();
    assert_eq!(status, 200);
    let debug_before = debug();

    // Each batch starts with a valid rewrite of node 1 and ends with a
    // mutation that cannot apply: neither half may land.
    for body in [
        r#"{"mutations": [
            {"op": "update_attrs", "node": 1, "attrs": [9.0, -9.0, 9.0, -9.0]},
            {"op": "add_edge", "u": 5, "v": 5}
        ]}"#,
        r#"{"mutations": [
            {"op": "update_attrs", "node": 1, "attrs": [9.0, -9.0, 9.0, -9.0]},
            {"op": "add_node", "attrs": [1.0, 2.0, 3.0, 4.0]},
            {"op": "add_edge", "u": 1, "v": 9}
        ]}"#,
        r#"{"mutations": [
            {"op": "update_attrs", "node": 1, "attrs": [9.0, -9.0, 9.0, -9.0]},
            {"op": "update_attrs", "node": 2, "attrs": [1.0]}
        ]}"#,
    ] {
        let (status, doc) = exchange(addr, &request("POST", "/mutate", body));
        assert_eq!(status, 400, "applied a bad batch: {doc:?}");
        assert_eq!(debug(), debug_before, "/debug/stream moved after {body}");
        let (status, scores) = score();
        assert_eq!(status, 200);
        assert_eq!(
            scores, scores_before,
            "node 1's features moved after {body}"
        );
    }
    assert_eq!(debug_before["graph_version"].as_f64(), Some(0.0));
    handle.shutdown();
}

#[test]
fn streamless_server_404s_stream_paths() {
    let handle = serve(
        shard_model(7),
        &ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..Default::default()
        },
    )
    .unwrap();
    let addr = handle.addr();
    let (status, _) = exchange(addr, &request("POST", "/mutate", r#"{"mutations": []}"#));
    assert_eq!(status, 404);
    let (status, _) = exchange(addr, &request("GET", "/debug/stream", ""));
    assert_eq!(status, 404);
    // A `nodes` body without an engine falls through to feature parsing
    // and fails loudly rather than silently scoring garbage.
    let (status, _) = exchange(addr, &request("POST", "/score", r#"{"nodes": [0]}"#));
    assert_eq!(status, 400);
    handle.shutdown();
}

fn metric(addr: std::net::SocketAddr, series: &str) -> f64 {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut text = String::new();
    stream.read_to_string(&mut text).unwrap();
    text.lines()
        .find_map(|l| l.strip_prefix(series)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or(0.0)
}

#[test]
fn a_node_with_a_non_finite_score_gets_no_verdict() {
    // Finite but huge attributes are admitted, and overflow the forward
    // into NaN probabilities. Node-mode `/score` follows the feature
    // path's rule: a non-finite score is a 500 and a counter, never a
    // verdict.
    let handle = serve_with_stream(
        shard_model(8),
        &ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..Default::default()
        },
        Some(engine(16, 8)),
    )
    .unwrap();
    let addr = handle.addr();
    let (status, doc) = exchange(
        addr,
        &request(
            "POST",
            "/mutate",
            r#"{"mutations": [{"op": "add_node", "attrs": [1e308, 1e308, 1e308, 1e308]}]}"#,
        ),
    );
    assert_eq!(status, 200, "mutate failed: {doc:?}");
    let node = doc["outcomes"][0]["node"]
        .as_u64()
        .expect("add_node assigns an id");
    let before = metric(addr, "serve_nonfinite_scores");
    let body = format!(r#"{{"nodes": [0, {node}]}}"#);
    let (status, doc) = exchange(addr, &request("POST", "/score", &body));
    assert_eq!(status, 500, "a non-finite score became a reply: {doc:?}");
    assert!(doc.get("verdicts").is_none());
    assert!(metric(addr, "serve_nonfinite_scores") > before);
    // Finite nodes keep scoring.
    let (status, _) = exchange(addr, &request("POST", "/score", r#"{"nodes": [0, 1]}"#));
    assert_eq!(status, 200);
    handle.shutdown();
}

#[test]
fn removed_nodes_answer_410_and_reject_mutations_across_compaction() {
    // Compact after every batch that changes anything, so the tombstone
    // must survive the overlay being folded into a fresh CSR.
    let policy = CompactionPolicy {
        min_churn: 1,
        churn_ratio: 0.0,
    };
    let handle = serve_with_stream(
        shard_model(9),
        &ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..Default::default()
        },
        Some(engine_with(16, 9, policy)),
    )
    .unwrap();
    let addr = handle.addr();
    let mutate = |body: &str| exchange(addr, &request("POST", "/mutate", body));

    let (status, doc) = mutate(r#"{"mutations": [{"op": "remove_node", "node": 3}]}"#);
    assert_eq!(status, 200, "remove_node failed: {doc:?}");
    assert_eq!(doc["outcomes"][0]["admitted"].as_bool(), Some(true));
    assert_eq!(doc["compacted"].as_bool(), Some(true));
    let mut version = doc["graph_version"].as_u64();

    for round in 0..2 {
        let (status, doc) = exchange(addr, &request("POST", "/score", r#"{"nodes": [0, 3]}"#));
        assert_eq!(status, 410, "a removed node was scored: {doc:?}");
        assert_eq!(doc["removed_node"].as_u64(), Some(3));
        assert!(doc.get("verdicts").is_none());

        let (status, doc) = mutate(
            r#"{"mutations": [
                {"op": "add_edge", "u": 3, "v": 4},
                {"op": "update_attrs", "node": 3, "attrs": [1.0, 2.0, 3.0, 4.0]}
            ]}"#,
        );
        assert_eq!(status, 200, "mutate failed: {doc:?}");
        for outcome in doc["outcomes"].as_array().unwrap() {
            assert_eq!(outcome["admitted"].as_bool(), Some(false), "{outcome:?}");
            assert_eq!(outcome["reason"].as_str(), Some("removed_node"));
        }
        assert_eq!(doc["graph_version"].as_u64(), version);

        // Live nodes keep scoring; then a compaction-triggering change to
        // the rest of the graph, after which the tombstone must hold.
        let (status, _) = exchange(addr, &request("POST", "/score", r#"{"nodes": [0, 4]}"#));
        assert_eq!(status, 200);
        let (u, v) = (8 + 2 * round, 9 + 2 * round);
        let (status, doc) = mutate(&format!(
            r#"{{"mutations": [{{"op": "remove_edge", "u": {u}, "v": {v}}}]}}"#
        ));
        assert_eq!(status, 200, "mutate failed: {doc:?}");
        assert_eq!(doc["compacted"].as_bool(), Some(true));
        version = doc["graph_version"].as_u64();
    }
    handle.shutdown();
}
