//! Event-loop front-end behavior over real sockets: keep-alive connection
//! reuse, pipelined requests answered strictly in order, idle-connection
//! reaping, a drain across many loops where every accepted request is
//! answered, and an idle server that costs (almost) no CPU.

use gale_core::{Sgan, SganConfig};
use gale_json::Value;
use gale_serve::{serve, BatchConfig, ServeConfig};
use gale_tensor::{Matrix, Rng};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

const DIM: usize = 4;

fn tiny_model(seed: u64) -> Sgan {
    let mut rng = Rng::seed_from_u64(seed);
    Sgan::new(
        DIM,
        &SganConfig {
            d_hidden: vec![6, 4],
            g_hidden: vec![6],
            ..Default::default()
        },
        &mut rng,
    )
}

fn boot(shards: usize) -> gale_serve::ServerHandle {
    serve(
        tiny_model(31),
        &ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            shards,
            ..Default::default()
        },
    )
    .unwrap()
}

fn score_request(rows: usize, keep_alive: bool) -> Vec<u8> {
    let mut rng = Rng::seed_from_u64(rows as u64);
    let x = Matrix::randn(rows, DIM, 1.0, &mut rng);
    let body: Vec<String> = (0..rows)
        .map(|r| {
            let vals: Vec<String> = (0..DIM).map(|c| format!("{:?}", x[(r, c)])).collect();
            format!("[{}]", vals.join(","))
        })
        .collect();
    let body = format!("{{\"features\": [{}]}}", body.join(","));
    let conn = if keep_alive {
        ""
    } else {
        "Connection: close\r\n"
    };
    format!(
        "POST /score HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n{conn}\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Reads exactly one `Content-Length`-framed response off the stream.
fn read_one_response(stream: &mut TcpStream, buf: &mut Vec<u8>) -> (u16, Value) {
    let mut scratch = [0u8; 8192];
    loop {
        if let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = std::str::from_utf8(&buf[..head_end]).unwrap();
            let body_len: usize = head
                .lines()
                .find_map(|l| l.strip_prefix("Content-Length: "))
                .unwrap()
                .parse()
                .unwrap();
            if buf.len() >= head_end + 4 + body_len {
                let status = head.split_whitespace().nth(1).unwrap().parse().unwrap();
                let body = std::str::from_utf8(&buf[head_end + 4..head_end + 4 + body_len])
                    .unwrap()
                    .to_string();
                buf.drain(..head_end + 4 + body_len);
                return (status, gale_json::from_str(&body).unwrap());
            }
        }
        let n = stream.read(&mut scratch).expect("read");
        assert_ne!(n, 0, "server closed before a full response arrived");
        buf.extend_from_slice(&scratch[..n]);
    }
}

#[test]
fn keep_alive_answers_many_requests_on_one_connection() {
    let handle = boot(2);
    let addr = handle.addr();
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut buf = Vec::new();
    // Ten sequential exchanges over the same socket.
    for i in 1..=10usize {
        stream.write_all(&score_request(i % 3 + 1, true)).unwrap();
        let (status, doc) = read_one_response(&mut stream, &mut buf);
        assert_eq!(status, 200, "request {i}");
        assert_eq!(
            doc.get("probs").unwrap().as_array().unwrap().len(),
            i % 3 + 1
        );
        assert_eq!(doc.get("model_version").unwrap().as_u64(), Some(1));
    }
    // An explicit `Connection: close` request ends the connection.
    stream.write_all(&score_request(1, false)).unwrap();
    let (status, _) = read_one_response(&mut stream, &mut buf);
    assert_eq!(status, 200);
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "bytes after the close-bound response");
    handle.shutdown();
}

#[test]
fn pipelined_requests_are_answered_in_request_order() {
    let handle = boot(2);
    let addr = handle.addr();
    let mut stream = TcpStream::connect(addr).unwrap();
    // One write carrying three different requests back to back: a
    // health check, a 2-row score (answered only after the tick's forward
    // pass), and another health check. In-order means the cheap third
    // answer must still come after the scored second one.
    let mut burst = Vec::new();
    burst.extend_from_slice(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    burst.extend_from_slice(&score_request(2, true));
    burst.extend_from_slice(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    stream.write_all(&burst).unwrap();

    let mut buf = Vec::new();
    let (s1, d1) = read_one_response(&mut stream, &mut buf);
    let (s2, d2) = read_one_response(&mut stream, &mut buf);
    let (s3, d3) = read_one_response(&mut stream, &mut buf);
    assert_eq!((s1, s2, s3), (200, 200, 200));
    assert_eq!(d1.get("status").and_then(Value::as_str), Some("ok"));
    assert_eq!(d2.get("probs").unwrap().as_array().unwrap().len(), 2);
    assert_eq!(d3.get("status").and_then(Value::as_str), Some("ok"));
    handle.shutdown();
}

#[test]
fn idle_connections_are_reaped_after_the_keep_alive_timeout() {
    let handle = serve(
        tiny_model(32),
        &ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            keep_alive_secs: 1,
            ..Default::default()
        },
    )
    .unwrap();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // Send nothing; the server must close the idle connection on its own.
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());
    handle.shutdown();
}

#[test]
fn multi_shard_shutdown_answers_every_accepted_request() {
    // Four event loops, each splitting its tick into 2-row forwards: 24
    // clients spread across the loops get their requests accepted, then
    // the server is told to drain. Every single one must come back 200
    // with its own rows — no loop may exit with an accepted request
    // unanswered, whichever loop took the shutdown request.
    let handle = serve(
        tiny_model(33),
        &ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            shards: 4,
            batch: BatchConfig {
                max_batch: 2,
                queue_capacity: 64,
            },
            ..Default::default()
        },
    )
    .unwrap();
    let addr = handle.addr();

    let clients: Vec<_> = (0..24)
        .map(|i| {
            std::thread::spawn(move || -> (u16, usize) {
                let rows = i % 4 + 1;
                let mut stream = TcpStream::connect(addr).unwrap();
                stream.write_all(&score_request(rows, true)).unwrap();
                let mut buf = Vec::new();
                let (status, doc) = read_one_response(&mut stream, &mut buf);
                (status, doc.get("probs").unwrap().as_array().unwrap().len())
            })
        })
        .collect();
    // Let the requests land, then drain via the admin endpoint like an
    // operator would.
    std::thread::sleep(Duration::from_millis(150));
    let mut admin = TcpStream::connect(addr).unwrap();
    admin
        .write_all(b"POST /admin/shutdown HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n")
        .unwrap();
    let mut buf = Vec::new();
    let (status, doc) = read_one_response(&mut admin, &mut buf);
    assert_eq!(status, 200);
    assert_eq!(doc.get("status").and_then(Value::as_str), Some("draining"));
    handle.wait();
    for (i, client) in clients.into_iter().enumerate() {
        let (status, rows) = client.join().unwrap();
        assert_eq!(status, 200, "client {i} dropped during drain");
        assert_eq!(rows, i % 4 + 1, "client {i} got someone else's answer");
    }
    // The listener is gone.
    assert!(TcpStream::connect(addr).is_err());
}

/// CPU time (nanoseconds) the server's loop threads have run, from
/// `/proc/self/task/*/schedstat`. Loop threads are named `gale-serve-{i}`.
#[cfg(target_os = "linux")]
fn server_thread_cpu_ns() -> u64 {
    let mut total = 0;
    for task in std::fs::read_dir("/proc/self/task").unwrap() {
        let dir = task.unwrap().path();
        let comm = std::fs::read_to_string(dir.join("comm")).unwrap_or_default();
        if !comm.starts_with("gale-serve-") {
            continue;
        }
        let stat = std::fs::read_to_string(dir.join("schedstat")).unwrap_or_default();
        total += stat
            .split_whitespace()
            .next()
            .and_then(|ns| ns.parse::<u64>().ok())
            .unwrap_or(0);
    }
    total
}

#[cfg(target_os = "linux")]
#[test]
fn an_idle_server_sleeps_in_the_kernel() {
    // Two loops, one idle keep-alive connection: loops sleep in the kernel
    // until a socket, a waker, or a keep-alive deadline is due, so a second
    // of idleness must cost them well under 10 ms of CPU.
    let handle = boot(2);
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let mut buf = Vec::new();
    stream.write_all(&score_request(1, true)).unwrap();
    assert_eq!(read_one_response(&mut stream, &mut buf).0, 200);
    let before = server_thread_cpu_ns();
    assert!(before > 0, "no gale-serve-* threads found");
    std::thread::sleep(Duration::from_secs(1));
    let used_ms = (server_thread_cpu_ns() - before) as f64 / 1e6;
    assert!(
        used_ms < 10.0,
        "idle server threads used {used_ms:.1} ms of CPU in 1 s"
    );
    drop(stream);
    handle.shutdown();
}
