//! Connection handling, request routing, hot reload, and the
//! graceful-shutdown protocol.
//!
//! Every shard is an event-loop thread that owns its replica. `--shards N`
//! runs N loops polling the one shared listener; accepted connections are
//! dealt round-robin across the loops, and each loop owns its connections
//! from then on as nonblocking std `TcpStream`s (no mio/tokio, like the
//! rest of the stack). Connections are keep-alive and may pipeline
//! requests; responses always leave in request order. Each tick a loop
//! blocks in `poll(2)` until a socket or its waker is ready, then
//!
//! 1. reads and parses every ready connection ([`http::parse_request`] is
//!    the one HTTP decoder),
//! 2. scores that tick's feature jobs on its own thread, in forwards of at
//!    most `max_batch` rows (jobs beyond `queue_capacity` in one tick
//!    answer `503` + `Retry-After`), and
//! 3. renders and writes the replies.
//!
//! There is no linger and no poll tick: a loop sleeps in the kernel until
//! there is work, and scores exactly what arrived.
//!
//! `POST /admin/reload` loads a new checkpoint *off* the loops (a worker
//! thread does the file IO and validation), swaps it into every shard under
//! that shard's lock, then wakes the requesting loop to answer. Every
//! request is handled under `catch_unwind`: a panicking handler answers
//! `500` and counts into `serve_handler_panics`, and the loop keeps
//! serving. Shutdown — [`ServerHandle::shutdown`] or
//! `POST /admin/shutdown` — wakes every loop, which stops accepting,
//! answers everything already received, and exits once its connections
//! are flushed.

use crate::batcher::{
    us32, BatchConfig, Job, Precision, ReloadError, ScoreReply, ShardPool, SubmitError,
};
use crate::http::{self, HttpError, Request};
use crate::metrics;
use crate::poll::{fd_of, Poller, Waker};
use crate::stream::StreamState;
use gale_core::Sgan;
use gale_json::{json, Value};
use gale_nn::checkpoint::CkptError;
use gale_obs::ring::{self, TracePolicy, WideEvent};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, TryRecvError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; use port `0` to let the OS pick one.
    pub addr: String,
    /// Batching knobs (per shard).
    pub batch: BatchConfig,
    /// Value of the `Retry-After` header on shed (`503`) responses,
    /// seconds.
    pub retry_after_secs: u32,
    /// Scorer shards, each owning a model replica and the event-loop
    /// thread that scores on it.
    pub shards: usize,
    /// Per-shard serving precision. Empty runs every shard at `f64` (the
    /// bit-exact default); one entry broadcasts to every shard; otherwise
    /// the list must name one precision per shard, in shard order.
    pub precision: Vec<Precision>,
    /// Idle keep-alive connections are closed after this many seconds.
    pub keep_alive_secs: u64,
    /// Whether per-request tracing (wide events into the `/debug/trace`
    /// and `/debug/slow` rings) is on. Defaults to on: the overhead is
    /// CI-gated at a few percent of p99, so it ships enabled.
    pub trace: bool,
    /// Head sampling: keep 1 request in this many in the recent ring
    /// (0 disables head sampling, 1 keeps everything).
    pub trace_sample: u64,
    /// Tail capture: requests at or above this total latency (µs) are kept
    /// in the slow ring regardless of sampling, as are error responses.
    pub trace_slow_us: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let policy = TracePolicy::default();
        ServeConfig {
            addr: "127.0.0.1:7878".to_string(),
            batch: BatchConfig::default(),
            retry_after_secs: 1,
            shards: 1,
            precision: Vec::new(),
            keep_alive_secs: 60,
            trace: true,
            trace_sample: policy.sample_every,
            trace_slow_us: policy.slow_us,
        }
    }
}

/// Shared request-handling context.
struct Ctx {
    pool: Arc<ShardPool>,
    shutdown: AtomicBool,
    retry_after: String,
    started: Instant,
    /// Streaming engine, present when the server booted with a bundle.
    stream: Option<StreamState>,
    /// One waker per event loop (each waits in `poll(2)`).
    wakers: Vec<Arc<Waker>>,
    /// Connections accepted by one loop on behalf of another, per loop.
    inboxes: Vec<Mutex<Vec<TcpStream>>>,
    /// Round-robin counter dealing accepted connections to loops.
    next_conn: AtomicUsize,
}

impl Ctx {
    /// Starts the graceful drain and wakes every waiting thread to notice.
    fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for waker in &self.wakers {
            waker.wake();
        }
    }
}

/// A running server. Dropping the handle without calling
/// [`ServerHandle::shutdown`] or [`ServerHandle::wait`] signals shutdown
/// but does not wait for the drain.
pub struct ServerHandle {
    addr: SocketAddr,
    ctx: Arc<Ctx>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address actually bound (resolves port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Initiates a graceful shutdown and blocks until every accepted
    /// request has been answered and all threads have exited.
    pub fn shutdown(mut self) {
        self.ctx.stop();
        self.join_threads();
    }

    /// Blocks until the server shuts down on its own (via
    /// `POST /admin/shutdown`), draining as in [`ServerHandle::shutdown`].
    pub fn wait(mut self) {
        self.join_threads();
    }

    fn join_threads(&mut self) {
        for h in self.threads.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.ctx.stop();
    }
}

/// Boots the server around a loaded model and returns once it is
/// listening.
pub fn serve(model: Sgan, cfg: &ServeConfig) -> std::io::Result<ServerHandle> {
    serve_with_stream(model, cfg, None)
}

/// Boots the server with an optional streaming engine attached. With an
/// engine, `POST /mutate`, node-mode `POST /score` (`{"nodes": [...]}`
/// bodies), and `GET /debug/stream` come alive; feature-body `/score`
/// requests keep the shard path either way.
pub fn serve_with_stream(
    model: Sgan,
    cfg: &ServeConfig,
    stream: Option<gale_stream::StreamEngine>,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    ring::configure(
        cfg.trace,
        TracePolicy {
            sample_every: cfg.trace_sample,
            seed: 0,
            slow_us: cfg.trace_slow_us,
        },
    );
    let shards = cfg.shards.max(1);
    let precisions: Vec<Precision> = match cfg.precision.len() {
        0 => vec![Precision::F64; shards],
        1 => vec![cfg.precision[0]; shards],
        n if n == shards => cfg.precision.clone(),
        n => {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("--precision names {n} shard precisions but --shards is {shards}"),
            ))
        }
    };
    let ctx = Arc::new(Ctx {
        pool: ShardPool::new(model, &precisions, &cfg.batch),
        shutdown: AtomicBool::new(false),
        retry_after: cfg.retry_after_secs.to_string(),
        started: Instant::now(),
        stream: stream.map(StreamState::new),
        wakers: (0..shards)
            .map(|_| Waker::new().map(Arc::new))
            .collect::<std::io::Result<_>>()?,
        inboxes: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
        next_conn: AtomicUsize::new(0),
    });

    let listener = Arc::new(listener);
    let keep_alive = Duration::from_secs(cfg.keep_alive_secs.max(1));
    let mut threads = Vec::with_capacity(shards);
    for shard in 0..shards {
        let (loop_ctx, listener) = (ctx.clone(), listener.clone());
        let spawned = std::thread::Builder::new()
            .name(format!("gale-serve-{shard}"))
            .spawn(move || EventLoop::new(shard, listener, loop_ctx, keep_alive).run());
        match spawned {
            Ok(handle) => threads.push(handle),
            Err(e) => {
                ctx.stop();
                return Err(e);
            }
        }
    }
    gale_obs::info!(
        "gale-serve listening on http://{addr} ({} shard{} [{}])",
        precisions.len(),
        if precisions.len() == 1 { "" } else { "s" },
        precisions
            .iter()
            .map(|p| p.as_str())
            .collect::<Vec<_>>()
            .join(",")
    );
    Ok(ServerHandle { addr, ctx, threads })
}

// ---------------------------------------------------------------------------
// Endpoint logic
// ---------------------------------------------------------------------------

/// Connection-side timing captured before a request reaches the endpoint
/// logic. Only built while request tracing is on — with tracing off the
/// connection loops take no extra clock reads.
struct ReqTiming {
    /// When the request's first bytes arrived (start of `total_us`).
    started: Instant,
    /// Socket read time already accumulated, first byte to fully buffered.
    read_us: u32,
    /// When head parsing began; everything up to the end of feature
    /// parsing is charged to `parse_us`.
    parse_started: Instant,
}

/// A `/score` request's wide event under construction, carried alongside
/// the response until the last byte is flushed.
struct TraceState {
    ev: WideEvent,
    started: Instant,
    /// The end of the last stage stamped so far — parsing, until the
    /// response starts rendering, which opens `write_us` — so each stage
    /// costs one clock read.
    mark: Instant,
}

/// Completes a wide event once its response has fully left the socket:
/// stamps write/total timings, feeds the always-live stage histograms,
/// and offers the record to the trace rings.
fn finish_trace(mut state: TraceState) {
    let now = Instant::now();
    state.ev.write_us = us32(now.duration_since(state.mark));
    state.ev.total_us = now.duration_since(state.started).as_micros() as u64;
    metrics::stage_read_us().record(state.ev.read_us as f64);
    metrics::stage_parse_us().record(state.ev.parse_us as f64);
    metrics::stage_dispatch_us().record(state.ev.dispatch_us as f64);
    metrics::stage_write_us().record(state.ev.write_us as f64);
    metrics::request_us().record(state.ev.total_us as f64);
    ring::offer(state.ev);
}

/// Stamps a terminal status into the wide event and starts its write
/// stage: the response is about to be rendered (no-op when untraced).
fn set_status(trace: &mut Option<Box<TraceState>>, status: u16) {
    if let Some(state) = trace {
        state.ev.status = status;
        state.mark = Instant::now();
    }
}

/// A parsed feature `/score` request waiting for its forward pass.
struct ScoreMeta {
    rows: usize,
    keep_alive: bool,
    request_id: u64,
    trace: Option<Box<TraceState>>,
}

/// What handling a request produced.
enum Outcome {
    /// Rendered response, ready to send; `/score` responses carry their
    /// wide event so write time can still be attributed.
    Ready(Vec<u8>, Option<Box<TraceState>>),
    /// A parsed feature `/score` job; the connection layer admits it to a
    /// shard, scores it, and renders the reply with [`render_scored`].
    Score { features: Vec<f64>, meta: ScoreMeta },
    /// A reload worker thread is loading and validating a checkpoint.
    Reload {
        done: Receiver<Result<u64, ReloadError>>,
        keep_alive: bool,
    },
}

/// Runs one request's handling with panic isolation: a panic anywhere
/// inside answers `500`, counts into `serve_handler_panics`, and leaves
/// the calling thread (possibly the only event loop) serving.
fn isolate<T>(keep_alive: bool, handle: impl FnOnce() -> T) -> Result<T, Vec<u8>> {
    catch_unwind(AssertUnwindSafe(handle)).map_err(|_| {
        metrics::handler_panics().add(1);
        internal_error(
            "internal error while handling the request",
            None,
            keep_alive,
        )
    })
}

/// A `500` response carrying `msg`, plus the request id when the request
/// had one.
fn internal_error(msg: &str, request_id: Option<u64>, keep_alive: bool) -> Vec<u8> {
    let mut body = json!({"error": msg});
    if let (Some(id), Value::Object(map)) = (request_id, &mut body) {
        map.insert("request_id", Value::from(id));
    }
    http::render_json(500, "Internal Server Error", &[], &body, keep_alive)
}

/// Routes one request. `waker` belongs to the event loop handling it, so
/// work finished on another thread can wake that loop.
fn handle_request(
    request: &Request,
    ctx: &Ctx,
    timing: Option<ReqTiming>,
    waker: &Arc<Waker>,
) -> Outcome {
    let ka = request.keep_alive;
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/score") => match &ctx.stream {
            // Node-mode scoring goes to the streaming engine; feature
            // bodies stay on the shard path.
            Some(stream) if StreamState::is_node_request(&request.body) => {
                Outcome::Ready(stream.score_nodes(&request.body, ka), None)
            }
            _ => score_request(request, ctx, timing),
        },
        ("POST", "/mutate") => match &ctx.stream {
            Some(stream) => Outcome::Ready(stream.mutate(&request.body, ka), None),
            None => Outcome::Ready(
                http::render_json(
                    404,
                    "Not Found",
                    &[],
                    &json!({"error": "server booted without --stream"}),
                    ka,
                ),
                None,
            ),
        },
        ("GET", "/debug/stream") => match &ctx.stream {
            Some(stream) => Outcome::Ready(stream.debug(ka), None),
            None => Outcome::Ready(
                http::render_json(
                    404,
                    "Not Found",
                    &[],
                    &json!({"error": "server booted without --stream"}),
                    ka,
                ),
                None,
            ),
        },
        ("GET", "/debug/trace") => {
            let events: Vec<Value> = ring::drain_recent()
                .iter()
                .map(WideEvent::to_json)
                .collect();
            Outcome::Ready(
                http::render_json(
                    200,
                    "OK",
                    &[],
                    &json!({
                        "stats": ring::stats_json(),
                        "trace": Value::Array(events),
                    }),
                    ka,
                ),
                None,
            )
        }
        ("GET", "/debug/slow") => {
            let events: Vec<Value> = ring::slow_snapshot()
                .iter()
                .map(WideEvent::to_json)
                .collect();
            Outcome::Ready(
                http::render_json(
                    200,
                    "OK",
                    &[],
                    &json!({
                        "slow_threshold_us": ring::policy().slow_us,
                        "slow": Value::Array(events),
                    }),
                    ka,
                ),
                None,
            )
        }
        ("GET", "/debug/queues") => {
            let shards: Vec<Value> = ctx
                .pool
                .shard_snapshots()
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    json!({
                        "shard": i as u64,
                        "depth": Value::Int(s.depth),
                        "in_flight": s.in_flight,
                        "last_batch_rows": s.last_batch_rows,
                        "last_batch_version": s.last_batch_version,
                        "batches": s.batches,
                        "pool_hits": s.pool_hits,
                        "pool_misses": s.pool_misses,
                        "precision": s.precision.as_str(),
                    })
                })
                .collect();
            Outcome::Ready(
                http::render_json(
                    200,
                    "OK",
                    &[],
                    &json!({
                        "uptime_secs": ctx.started.elapsed().as_secs(),
                        "model_version": Value::Int(ctx.pool.version() as i64),
                        "shards": Value::Array(shards),
                    }),
                    ka,
                ),
                None,
            )
        }
        ("GET", "/healthz") => Outcome::Ready(
            http::render_json(
                200,
                "OK",
                &[],
                &json!({
                    "status": "ok",
                    "kind": "sgan",
                    "input_dim": ctx.pool.input_dim(),
                    "model_version": Value::Int(ctx.pool.version() as i64),
                    "shards": ctx.pool.shard_count(),
                    "precisions": Value::Array(
                        ctx.pool
                            .precisions()
                            .iter()
                            .map(|p| Value::from(p.as_str()))
                            .collect(),
                    ),
                }),
                ka,
            ),
            None,
        ),
        ("GET", "/metrics") => {
            // Refresh the process high-water mark so scrapes see a live
            // number; VmHWM only rises, so sampling here is always safe.
            gale_obs::record_peak_rss();
            Outcome::Ready(
                http::render_response(
                    200,
                    "OK",
                    "text/plain; version=0.0.4",
                    &[],
                    gale_obs::metrics::render_text().as_bytes(),
                    ka,
                ),
                None,
            )
        }
        ("POST", "/admin/reload") => reload_request(request, ctx, waker),
        ("POST", "/admin/shutdown") => {
            let ack = http::render_json(200, "OK", &[], &json!({"status": "draining"}), ka);
            ctx.stop();
            Outcome::Ready(ack, None)
        }
        (
            "POST" | "GET",
            "/score" | "/healthz" | "/metrics" | "/admin/reload" | "/admin/shutdown"
            | "/debug/trace" | "/debug/slow" | "/debug/queues" | "/mutate" | "/debug/stream",
        ) => Outcome::Ready(
            http::render_json(
                405,
                "Method Not Allowed",
                &[],
                &json!({"error": "method not allowed"}),
                ka,
            ),
            None,
        ),
        _ => Outcome::Ready(
            http::render_json(
                404,
                "Not Found",
                &[],
                &json!({"error": "no such endpoint"}),
                ka,
            ),
            None,
        ),
    }
}

/// Parses a feature `/score` body into a job for the connection layer to
/// admit and score, or answers `400`.
fn score_request(request: &Request, ctx: &Ctx, timing: Option<ReqTiming>) -> Outcome {
    let ka = request.keep_alive;
    let request_id = ring::next_request_id();
    // Spans and events emitted anywhere under this request carry its id.
    let _scope = gale_obs::span::request_scope(request_id);
    let parsed = parse_features(&request.body, ctx.pool.input_dim());
    let mut trace = timing.map(|t| {
        let parsed = Instant::now();
        Box::new(TraceState {
            started: t.started,
            mark: parsed,
            ev: WideEvent {
                request_id,
                read_us: t.read_us,
                parse_us: us32(parsed.duration_since(t.parse_started)),
                ..Default::default()
            },
        })
    });
    match parsed {
        Ok((features, rows)) => {
            if let Some(state) = &mut trace {
                state.ev.rows = rows.min(u32::MAX as usize) as u32;
            }
            Outcome::Score {
                features,
                meta: ScoreMeta {
                    rows,
                    keep_alive: ka,
                    request_id,
                    trace,
                },
            }
        }
        Err(msg) => {
            set_status(&mut trace, 400);
            Outcome::Ready(
                http::render_json(
                    400,
                    "Bad Request",
                    &[],
                    &json!({"error": msg, "request_id": request_id}),
                    ka,
                ),
                trace,
            )
        }
    }
}

/// The `503` + `Retry-After` answer to a job its shard had no room for.
fn shed_response(mut meta: ScoreMeta, ctx: &Ctx) -> (Vec<u8>, Option<Box<TraceState>>) {
    set_status(&mut meta.trace, 503);
    let bytes = http::render_json(
        503,
        "Service Unavailable",
        &[("Retry-After", ctx.retry_after.as_str())],
        &json!({"error": "queue full, retry later", "request_id": meta.request_id}),
        meta.keep_alive,
    );
    (bytes, meta.trace)
}

/// Renders a scored job: `200` with its verdicts, or `500` when the model
/// produced a non-finite probability (counted in `serve_nonfinite_scores`;
/// a non-finite score never becomes a verdict).
fn render_scored(mut meta: ScoreMeta, scored: &ScoreReply) -> (Vec<u8>, Option<Box<TraceState>>) {
    if let Some(state) = &mut meta.trace {
        state.ev.shard = scored.shard;
        state.ev.model_version = scored.version;
        state.ev.precision_bits = scored.precision.bits();
        state.ev.batch_rows = scored.batch_rows;
        state.ev.queue_us = scored.queue_us;
        state.ev.assembly_us = scored.assembly_us;
        state.ev.forward_us = scored.forward_us;
    }
    set_status(&mut meta.trace, 200);
    let body = score_body(
        &scored.probs,
        meta.rows,
        scored.version,
        meta.request_id,
        scored.precision,
    );
    let bytes = match body {
        Ok(body) => http::render_json(200, "OK", &[], &body, meta.keep_alive),
        Err(bad_rows) => {
            if let Some(state) = &mut meta.trace {
                state.ev.status = 500;
            }
            nonfinite_response(bad_rows, Some(meta.request_id), meta.keep_alive)
        }
    };
    (bytes, meta.trace)
}

/// The `500` answer to a reply whose model output holds `bad_rows`
/// non-finite probability rows; counts them into `serve_nonfinite_scores`.
pub(crate) fn nonfinite_response(
    bad_rows: u64,
    request_id: Option<u64>,
    keep_alive: bool,
) -> Vec<u8> {
    metrics::nonfinite_scores().add(bad_rows);
    internal_error(
        "the model produced a non-finite score",
        request_id,
        keep_alive,
    )
}

/// Spawns the reload worker. File IO, JSON parsing, replica construction,
/// and the shard swaps all happen on the worker thread — the event loops
/// stay on their hot path — and the worker wakes the requesting loop
/// (`waker`) once the result is in.
fn reload_request(request: &Request, ctx: &Ctx, waker: &Arc<Waker>) -> Outcome {
    let ka = request.keep_alive;
    let path = std::str::from_utf8(&request.body)
        .ok()
        .and_then(|text| gale_json::from_str(text).ok())
        .and_then(|doc| doc.get("ckpt").and_then(Value::as_str).map(str::to_string));
    let Some(path) = path else {
        return Outcome::Ready(
            http::render_json(
                400,
                "Bad Request",
                &[],
                &json!({"error": "body must be {\"ckpt\": \"path\"}"}),
                ka,
            ),
            None,
        );
    };
    let (tx, done) = mpsc::channel();
    let pool = ctx.pool.clone();
    let waker = waker.clone();
    let spawned = std::thread::Builder::new()
        .name("gale-serve-reload".into())
        .spawn(move || {
            let result = pool.reload(&path);
            match &result {
                Ok(version) => gale_obs::info!("reloaded checkpoint `{path}` as v{version}"),
                Err(e) => {
                    metrics::reload_failures().add(1);
                    gale_obs::warn!("reload of `{path}` rejected: {e}");
                }
            }
            let _ = tx.send(result);
            waker.wake();
        });
    match spawned {
        Ok(_) => Outcome::Reload {
            done,
            keep_alive: ka,
        },
        Err(e) => Outcome::Ready(
            internal_error(&format!("cannot spawn reload worker: {e}"), None, ka),
            None,
        ),
    }
}

/// Renders a completed reload as HTTP: the typed [`ReloadError`] surfaces
/// as a 4xx/5xx, never a panic, and the old model keeps serving.
fn render_reload_result(result: Result<u64, ReloadError>, keep_alive: bool) -> Vec<u8> {
    match result {
        Ok(version) => http::render_json(
            200,
            "OK",
            &[],
            &json!({"status": "reloaded", "model_version": Value::Int(version as i64)}),
            keep_alive,
        ),
        // An IO error on a path that does not exist is the client naming
        // the wrong file (404); an IO error on an existing file (refused
        // permissions, invalid UTF-8 from torn bytes) is a damaged or
        // unreadable checkpoint like any other decode failure (422).
        Err(e @ ReloadError::Ckpt(CkptError::Io { .. })) => {
            let missing = matches!(
                &e,
                ReloadError::Ckpt(CkptError::Io { path, .. })
                    if !std::path::Path::new(path).exists()
            );
            let (status, reason) = if missing {
                (404, "Not Found")
            } else {
                (422, "Unprocessable Entity")
            };
            http::render_json(
                status,
                reason,
                &[],
                &json!({"error": e.to_string()}),
                keep_alive,
            )
        }
        Err(e @ ReloadError::Ckpt(_)) => http::render_json(
            422,
            "Unprocessable Entity",
            &[],
            &json!({"error": e.to_string()}),
            keep_alive,
        ),
        Err(e @ ReloadError::DimMismatch { .. }) => http::render_json(
            409,
            "Conflict",
            &[],
            &json!({"error": e.to_string()}),
            keep_alive,
        ),
    }
}

// ---------------------------------------------------------------------------
// The event loop
// ---------------------------------------------------------------------------

/// Cap on unanswered pipelined requests per connection; parsing pauses
/// (and the socket naturally backpressures) beyond it.
const MAX_PIPELINE: usize = 32;

/// Read buffer cap per connection: always big enough for one maximal
/// request, so parsing can make progress, but bounded so a flooding client
/// cannot balloon memory.
const RBUF_CAP: usize = http::MAX_HEAD_BYTES + http::MAX_BODY_BYTES + 4096;

/// How long a drain waits for unresponsive clients to take their answers
/// before dropping them.
const DRAIN_DEADLINE: Duration = Duration::from_secs(10);

/// One queued (request-ordered) response slot.
enum Pending {
    Ready(Vec<u8>, Option<Box<TraceState>>),
    /// A feature job in this tick's batch; becomes `Ready` once scored.
    Scoring(ScoreMeta),
    Reload {
        done: Receiver<Result<u64, ReloadError>>,
        keep_alive: bool,
    },
}

struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    pending: VecDeque<Pending>,
    wbuf: Vec<u8>,
    wpos: usize,
    /// When the first bytes of the oldest unparsed request arrived (only
    /// tracked while request tracing is on).
    read_start: Option<Instant>,
    /// Absolute bytes ever flushed to this socket; write attribution for
    /// traced responses compares against it.
    flushed_total: u64,
    /// Traced responses queued in `wbuf`, as `(absolute end offset,
    /// trace)`; a response is done writing when `flushed_total` passes its
    /// end offset.
    traced_writes: VecDeque<(u64, Box<TraceState>)>,
    /// No further requests will be parsed (close requested or protocol
    /// error); close once everything queued is answered and flushed.
    no_more_requests: bool,
    /// Peer closed its write half or errored; stop reading.
    reading: bool,
    /// This connection's entry in the current wait, if it has one.
    poll_entry: Option<usize>,
    /// The last wait reported the socket readable (or it is new).
    readable: bool,
    /// Parsing stopped at [`MAX_PIPELINE`] with requests still buffered.
    parse_blocked: bool,
    dead: bool,
    last_activity: Instant,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            rbuf: Vec::new(),
            pending: VecDeque::new(),
            wbuf: Vec::new(),
            wpos: 0,
            read_start: None,
            flushed_total: 0,
            traced_writes: VecDeque::new(),
            no_more_requests: false,
            reading: true,
            poll_entry: None,
            readable: true,
            parse_blocked: false,
            dead: false,
            last_activity: Instant::now(),
        }
    }

    fn flushed(&self) -> bool {
        self.wpos == self.wbuf.len()
    }

    fn idle(&self) -> bool {
        self.pending.is_empty() && self.flushed() && self.rbuf.is_empty()
    }

    fn wants_read(&self, draining: bool) -> bool {
        self.reading && !draining && self.rbuf.len() < RBUF_CAP
    }
}

/// One shard's event loop: its connections and the current tick's jobs.
struct EventLoop {
    shard: usize,
    listener: Arc<TcpListener>,
    ctx: Arc<Ctx>,
    keep_alive: Duration,
    conns: Vec<Conn>,
    /// This tick's admitted feature jobs, and for each the connection and
    /// pending-slot index its reply goes to.
    jobs: Vec<Job>,
    slots: Vec<(usize, usize)>,
    replies: Vec<ScoreReply>,
    poller: Poller,
    scratch: Vec<u8>,
    /// When the drain began, once shutdown was requested.
    draining: Option<Instant>,
}

impl EventLoop {
    fn new(shard: usize, listener: Arc<TcpListener>, ctx: Arc<Ctx>, keep_alive: Duration) -> Self {
        EventLoop {
            shard,
            listener,
            ctx,
            keep_alive,
            conns: Vec::new(),
            jobs: Vec::new(),
            slots: Vec::new(),
            replies: Vec::new(),
            poller: Poller::new(),
            scratch: vec![0u8; 64 * 1024],
            draining: None,
        }
    }

    fn run(mut self) {
        let mut timeout = None;
        loop {
            let listener_ready = self.wait(timeout);
            self.note_shutdown();
            self.adopt();
            if listener_ready && self.draining.is_none() {
                self.accept();
            }
            let tracing = ring::tracing_enabled();
            for ci in 0..self.conns.len() {
                self.read_and_parse(ci, tracing);
            }
            // A shutdown request handled in this very tick flips the flag;
            // pick it up before judging which connections are finished.
            self.note_shutdown();
            self.score_tick();
            for conn in &mut self.conns {
                resolve_and_write(conn);
            }
            self.reap();
            if let Some(since) = self.draining {
                if self.conns.is_empty() {
                    break;
                }
                if since.elapsed() > DRAIN_DEADLINE {
                    gale_obs::warn!(
                        "gale-serve drain deadline hit with {} unresponsive connection(s)",
                        self.conns.len()
                    );
                    break;
                }
            }
            timeout = self.next_timeout();
        }
        metrics::connections().add(-(self.conns.len() as f64));
    }

    /// Blocks until a registered socket or the waker is ready, or
    /// `timeout` passes; marks which connections can be read. Returns
    /// whether the listener has connections to accept.
    fn wait(&mut self, timeout: Option<Duration>) -> bool {
        let draining = self.draining.is_some();
        let waker = &self.ctx.wakers[self.shard];
        self.poller.clear();
        self.poller.add(waker.fd(), true, false);
        let listener = (!draining).then(|| self.poller.add(fd_of(&*self.listener), true, false));
        // A connection with nothing to read or write waits on its own
        // pending work (a reload result arrives through the waker), so it
        // is left out rather than polled for hang-ups.
        for c in &mut self.conns {
            let (read, write) = (c.wants_read(draining), !c.flushed());
            c.poll_entry = (read || write).then(|| self.poller.add(fd_of(&c.stream), read, write));
        }
        if let Err(e) = self.poller.wait(timeout) {
            gale_obs::warn!("gale-serve poll failed: {e}");
            std::thread::sleep(Duration::from_millis(1));
        }
        waker.drain();
        for c in &mut self.conns {
            c.readable = c.poll_entry.is_some_and(|i| self.poller.readable(i));
        }
        listener.is_some_and(|i| self.poller.readable(i))
    }

    fn note_shutdown(&mut self) {
        if self.draining.is_none() && self.ctx.shutdown.load(Ordering::SeqCst) {
            self.draining = Some(Instant::now());
        }
    }

    /// Takes over connections another loop accepted for this one.
    fn adopt(&mut self) {
        let handed: Vec<TcpStream> = std::mem::take(
            &mut *self.ctx.inboxes[self.shard]
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        for stream in handed {
            self.push_conn(stream);
        }
    }

    fn push_conn(&mut self, stream: TcpStream) {
        metrics::connections().add(1.0);
        self.conns.push(Conn::new(stream));
    }

    /// Accepts everything ready, dealing connections round-robin across
    /// the loops so load spreads whichever loop woke first.
    fn accept(&mut self) {
        let loops = self.ctx.wakers.len();
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let owner = self.ctx.next_conn.fetch_add(1, Ordering::Relaxed) % loops;
                    if owner == self.shard {
                        self.push_conn(stream);
                    } else {
                        self.ctx.inboxes[owner]
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .push(stream);
                        self.ctx.wakers[owner].wake();
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => {
                    gale_obs::warn!("gale-serve accept error: {e}");
                    break;
                }
            }
        }
    }

    /// Reads whatever connection `ci` has ready, then peels complete
    /// pipelined requests off its buffer and handles them. Feature jobs
    /// are admitted to this loop's shard and join the tick's batch.
    fn read_and_parse(&mut self, ci: usize, tracing: bool) {
        let draining = self.draining.is_some();
        let conn = &mut self.conns[ci];
        if conn.dead {
            return;
        }
        // Read phase. Drain mode stops reading: requests not yet received
        // by the time shutdown was requested are not "accepted".
        if conn.readable && conn.reading && !draining {
            while conn.rbuf.len() < RBUF_CAP {
                let space = (RBUF_CAP - conn.rbuf.len()).min(self.scratch.len());
                match conn.stream.read(&mut self.scratch[..space]) {
                    Ok(0) => {
                        conn.reading = false;
                        break;
                    }
                    Ok(n) => {
                        let now = Instant::now();
                        if tracing && conn.rbuf.is_empty() {
                            conn.read_start = Some(now);
                        }
                        conn.rbuf.extend_from_slice(&self.scratch[..n]);
                        conn.last_activity = now;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conn.dead = true;
                        return;
                    }
                }
            }
        }

        // Parse phase. Runs in drain mode too — a request fully received
        // before the drain began was accepted and must be answered.
        conn.parse_blocked = false;
        while !conn.no_more_requests && !conn.rbuf.is_empty() {
            if conn.pending.len() >= MAX_PIPELINE {
                conn.parse_blocked = true;
                break;
            }
            let parse_started = tracing.then(Instant::now);
            let (request, consumed) = match http::parse_request(&conn.rbuf) {
                Ok(Some(parsed)) => parsed,
                Ok(None) => break,
                Err(HttpError::Malformed(msg)) => {
                    conn.pending.push_back(Pending::Ready(
                        http::render_json(400, "Bad Request", &[], &json!({"error": msg}), false),
                        None,
                    ));
                    conn.no_more_requests = true;
                    conn.reading = false;
                    conn.rbuf.clear();
                    break;
                }
            };
            conn.rbuf.drain(..consumed);
            let timing = parse_started.map(|parse_started| {
                let started = conn.read_start.take().unwrap_or(parse_started);
                // Whatever is still buffered belongs to the *next*
                // pipelined request, which is therefore already here.
                if !conn.rbuf.is_empty() {
                    conn.read_start = Some(Instant::now());
                }
                ReqTiming {
                    started,
                    read_us: us32(parse_started.duration_since(started)),
                    parse_started,
                }
            });
            let keep = request.keep_alive;
            let waker = &self.ctx.wakers[self.shard];
            let outcome = isolate(keep, || handle_request(&request, &self.ctx, timing, waker))
                .unwrap_or_else(|bytes| Outcome::Ready(bytes, None));
            let pending = match outcome {
                Outcome::Ready(bytes, trace) => Pending::Ready(bytes, trace),
                Outcome::Score { features, mut meta } => match self.ctx.pool.admit(self.shard) {
                    Ok(()) => {
                        let enqueued = Instant::now();
                        if let Some(state) = &mut meta.trace {
                            state.ev.dispatch_us = us32(enqueued.duration_since(state.mark));
                        }
                        self.jobs.push(Job {
                            rows: meta.rows,
                            features,
                            enqueued,
                        });
                        self.slots.push((ci, conn.pending.len()));
                        Pending::Scoring(meta)
                    }
                    Err(SubmitError::Overloaded) => {
                        let (bytes, trace) = shed_response(meta, &self.ctx);
                        Pending::Ready(bytes, trace)
                    }
                },
                Outcome::Reload { done, keep_alive } => Pending::Reload { done, keep_alive },
            };
            conn.pending.push_back(pending);
            if !keep {
                conn.no_more_requests = true;
            }
        }
    }

    /// Scores the tick's feature jobs on this thread and renders their
    /// replies into their response slots. A panic while scoring answers
    /// the jobs it left unscored with `500`.
    fn score_tick(&mut self) {
        if self.jobs.is_empty() {
            return;
        }
        self.replies.clear();
        let (pool, shard, jobs, replies) =
            (&self.ctx.pool, self.shard, &self.jobs, &mut self.replies);
        let _ = isolate(true, || pool.score_jobs(shard, jobs, replies));
        for (i, &(ci, pi)) in self.slots.iter().enumerate() {
            let slot = &mut self.conns[ci].pending[pi];
            let Pending::Scoring(meta) = std::mem::replace(slot, Pending::Ready(Vec::new(), None))
            else {
                unreachable!("job slots point at scoring entries");
            };
            *slot = match self.replies.get(i) {
                Some(scored) => {
                    let (bytes, trace) = render_scored(meta, scored);
                    Pending::Ready(bytes, trace)
                }
                None => {
                    let mut trace = meta.trace;
                    set_status(&mut trace, 500);
                    let msg = "internal error while scoring";
                    let bytes = internal_error(msg, Some(meta.request_id), meta.keep_alive);
                    Pending::Ready(bytes, trace)
                }
            };
        }
        self.jobs.clear();
        self.slots.clear();
    }

    /// Closes finished and timed-out connections.
    fn reap(&mut self) {
        let draining = self.draining.is_some();
        let now = Instant::now();
        for conn in &mut self.conns {
            let done = conn.pending.is_empty() && conn.flushed();
            // Close when the last reply is flushed and no more requests can
            // arrive (client half-closed, `Connection: close`, or drain), or
            // when an idle keep-alive connection outlives its timeout.
            let finished = (conn.no_more_requests || !conn.reading || draining) && done;
            let timed_out = !draining
                && conn.idle()
                && now.duration_since(conn.last_activity) > self.keep_alive;
            if finished || timed_out {
                conn.dead = true;
            }
        }
        let before = self.conns.len();
        self.conns.retain(|c| !c.dead);
        metrics::connections().add(-((before - self.conns.len()) as f64));
    }

    /// How long the next wait may block: not at all while a connection
    /// still holds parseable requests, until the drain deadline while
    /// draining, else until the earliest idle connection expires (forever
    /// with none).
    fn next_timeout(&self) -> Option<Duration> {
        if self
            .conns
            .iter()
            .any(|c| c.parse_blocked && c.pending.len() < MAX_PIPELINE)
        {
            return Some(Duration::ZERO);
        }
        if let Some(since) = self.draining {
            return Some(DRAIN_DEADLINE.saturating_sub(since.elapsed()));
        }
        let now = Instant::now();
        self.conns
            .iter()
            .filter(|c| c.idle())
            .map(|c| {
                // Just past the deadline, so the reap sees it expired.
                (self.keep_alive + Duration::from_millis(1))
                    .saturating_sub(now.duration_since(c.last_activity))
            })
            .min()
    }
}

/// Moves finished responses (strictly in request order, so only the front
/// of the queue can complete) into the write buffer, writes what the
/// socket takes, and completes the wide events of fully flushed replies.
fn resolve_and_write(conn: &mut Conn) {
    if conn.dead {
        return;
    }
    while let Some(front) = conn.pending.front_mut() {
        let resolved: Option<(Vec<u8>, Option<Box<TraceState>>)> = match front {
            Pending::Ready(bytes, trace) => Some((std::mem::take(bytes), trace.take())),
            Pending::Scoring(_) => None,
            Pending::Reload { done, keep_alive } => match done.try_recv() {
                Ok(result) => Some((render_reload_result(result, *keep_alive), None)),
                Err(TryRecvError::Empty) => None,
                Err(TryRecvError::Disconnected) => Some((
                    internal_error("reload worker died", None, *keep_alive),
                    None,
                )),
            },
        };
        let Some((bytes, trace)) = resolved else {
            break;
        };
        if let Some(state) = trace {
            let queued = (conn.wbuf.len() - conn.wpos) as u64;
            conn.traced_writes
                .push_back((conn.flushed_total + queued + bytes.len() as u64, state));
        }
        conn.wbuf.extend_from_slice(&bytes);
        conn.pending.pop_front();
    }

    while conn.wpos < conn.wbuf.len() {
        match conn.stream.write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => {
                conn.dead = true;
                return;
            }
            Ok(n) => {
                conn.wpos += n;
                conn.flushed_total += n as u64;
                conn.last_activity = Instant::now();
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
    // Any traced response whose last byte has now left the socket is
    // finished: stamp write/total timings and offer the wide event.
    while conn
        .traced_writes
        .front()
        .is_some_and(|(end, _)| *end <= conn.flushed_total)
    {
        let (_, state) = conn.traced_writes.pop_front().expect("front checked");
        finish_trace(*state);
    }
    if conn.flushed() && !conn.wbuf.is_empty() {
        conn.wbuf.clear();
        conn.wpos = 0;
    }
}

// ---------------------------------------------------------------------------
// /score body handling
// ---------------------------------------------------------------------------

/// Parses a `/score` body: `{"features": [[...], ...]}` (a batch) or
/// `{"features": [...]}` (one row). Every row must hold exactly
/// `input_dim` finite numbers.
fn parse_features(body: &[u8], input_dim: usize) -> Result<(Vec<f64>, usize), String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let doc = gale_json::from_str(text).map_err(|e| format!("body is not valid JSON: {e}"))?;
    let features = doc
        .get("features")
        .and_then(Value::as_array)
        .ok_or("`features` must be an array")?;
    if features.is_empty() {
        return Err("`features` is empty".to_string());
    }
    // Normalize a bare row into a one-row batch.
    let rows: Vec<&Vec<Value>> = if features[0].as_array().is_some() {
        features
            .iter()
            .map(|r| r.as_array().ok_or("rows must all be arrays".to_string()))
            .collect::<Result<_, _>>()?
    } else {
        vec![features]
    };
    let mut flat = Vec::with_capacity(rows.len() * input_dim);
    for row in &rows {
        if row.len() != input_dim {
            return Err(format!(
                "row has {} features, model wants {input_dim}",
                row.len()
            ));
        }
        for v in row.iter() {
            let x = v.as_f64().ok_or("features must be numbers")?;
            if !x.is_finite() {
                return Err("features must be finite".to_string());
            }
            flat.push(x);
        }
    }
    Ok((flat, rows.len()))
}

/// The verdict rule both score paths share: a row's two-class error score
/// (synthetic class dropped and renormalized, matching
/// `Sgan::class_probs`) and whether it is an error. `None` when any of
/// the row's probabilities is non-finite: such a row never becomes a
/// verdict.
pub(crate) fn verdict(probs: &[f64]) -> Option<(f64, bool)> {
    if !probs.iter().all(|p| p.is_finite()) {
        return None;
    }
    let (pe, pc) = (probs[0], probs[1]);
    Some((pe / (pe + pc).max(1e-12), pe > pc))
}

/// [`verdict`] for every probability row, or the number of rows that have
/// none.
pub(crate) fn verdicts<'a>(rows: impl Iterator<Item = &'a [f64]>) -> Result<Vec<(f64, bool)>, u64> {
    let all: Vec<Option<(f64, bool)>> = rows.map(verdict).collect();
    match all.iter().filter(|v| v.is_none()).count() as u64 {
        0 => Ok(all.into_iter().flatten().collect()),
        bad_rows => Err(bad_rows),
    }
}

/// Builds the `/score` response from `rows * 3` probabilities: the raw
/// 3-class rows, the two-class error scores and verdict strings of
/// [`verdict`], the model generation that scored the batch (every row of a
/// response was scored by exactly this version), and the request id also
/// stamped into the request's trace records. Feeds the per-version
/// score-distribution and verdict-mix series as a side effect, so
/// `/metrics` shows a reload as a clean handover between generations.
///
/// Fails with the number of non-finite rows, recording nothing, when any
/// row has no verdict.
fn score_body(
    probs: &[f64],
    rows: usize,
    version: u64,
    request_id: u64,
    precision: Precision,
) -> Result<Value, u64> {
    let verdicts = verdicts(probs.chunks(3).take(rows))?;
    let series = metrics::version_series(version);
    let mut prob_rows = Vec::with_capacity(rows);
    let mut error_scores = Vec::with_capacity(rows);
    let mut labels = Vec::with_capacity(rows);
    let (mut errors, mut corrects) = (0u64, 0u64);
    for (row, (score, erroneous)) in probs.chunks(3).zip(verdicts) {
        prob_rows.push(Value::Array(row.iter().map(|&p| Value::from(p)).collect()));
        series.score.record(score);
        error_scores.push(Value::from(score));
        if erroneous {
            errors += 1;
            labels.push(Value::from("error"));
        } else {
            corrects += 1;
            labels.push(Value::from("correct"));
        }
    }
    series.verdict_error.add(errors);
    series.verdict_correct.add(corrects);
    Ok(json!({
        "probs": Value::Array(prob_rows),
        "error_scores": Value::Array(error_scores),
        "verdicts": Value::Array(labels),
        "model_version": Value::Int(version as i64),
        "precision": precision.as_str(),
        "request_id": request_id,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_batch_and_single_row() {
        let (flat, rows) = parse_features(br#"{"features": [[1, 2.5], [3, 4]]}"#, 2).unwrap();
        assert_eq!(rows, 2);
        assert_eq!(flat, vec![1.0, 2.5, 3.0, 4.0]);
        let (flat, rows) = parse_features(br#"{"features": [7, 8]}"#, 2).unwrap();
        assert_eq!(rows, 1);
        assert_eq!(flat, vec![7.0, 8.0]);
    }

    #[test]
    fn parse_rejects_malformed_bodies() {
        for (body, dim) in [
            (&b"not json"[..], 2),
            (br#"{"rows": [[1, 2]]}"#, 2),
            (br#"{"features": []}"#, 2),
            (br#"{"features": [[1, 2, 3]]}"#, 2),
            (br#"{"features": [[1, "x"]]}"#, 2),
            (br#"{"features": [[1, null]]}"#, 2),
            (br#"{"features": [[1, 2], [3]]}"#, 2),
        ] {
            assert!(parse_features(body, dim).is_err(), "accepted {body:?}");
        }
    }

    #[test]
    fn score_body_reports_verdicts_and_renormalized_scores() {
        let probs = [0.6, 0.2, 0.2, 0.1, 0.7, 0.2];
        let body = score_body(&probs, 2, 3, 77, Precision::F32).unwrap();
        let verdicts = body.get("verdicts").unwrap().as_array().unwrap();
        assert_eq!(verdicts[0].as_str(), Some("error"));
        assert_eq!(verdicts[1].as_str(), Some("correct"));
        let scores = body.get("error_scores").unwrap().as_array().unwrap();
        assert!((scores[0].as_f64().unwrap() - 0.75).abs() < 1e-12);
        assert!((scores[1].as_f64().unwrap() - 0.125).abs() < 1e-12);
        assert_eq!(body.get("model_version").unwrap().as_u64(), Some(3));
        assert_eq!(body.get("precision").unwrap().as_str(), Some("f32"));
        assert_eq!(body.get("request_id").unwrap().as_u64(), Some(77));
        // The per-version series saw both rows.
        let series = metrics::version_series(3);
        assert!(series.verdict_error.get() >= 1);
        assert!(series.verdict_correct.get() >= 1);
    }

    #[test]
    fn non_finite_rows_never_become_verdicts() {
        // 1e308 features overflow the forward into NaN; whatever the cause,
        // a non-finite probability row fails the whole reply.
        let probs = [0.6, 0.2, 0.2, f64::NAN, 0.0, 0.0, 0.1, f64::INFINITY, 0.2];
        let series = metrics::version_series(91);
        assert_eq!(score_body(&probs, 3, 91, 5, Precision::F64), Err(2));
        assert_eq!(series.verdict_error.get() + series.verdict_correct.get(), 0);
        assert_eq!(verdict(&[0.5, 0.5, 0.0]), Some((0.5, false)));
        assert_eq!(verdict(&[f64::NAN, 0.0, 0.0]), None);
    }

    #[test]
    fn a_panicking_handler_answers_500_and_is_counted() {
        let before = metrics::handler_panics().get();
        let answered = isolate(true, || -> Outcome { panic!("handler bug") });
        let Err(bytes) = answered else {
            panic!("a panic must not produce an outcome");
        };
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 500 "), "{text}");
        assert!(text.contains("Connection: keep-alive"), "{text}");
        assert_eq!(metrics::handler_panics().get(), before + 1);
        // Calls that do not panic pass straight through.
        assert_eq!(isolate(false, || 7).ok(), Some(7));
    }
}
