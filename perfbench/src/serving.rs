//! The two serving workloads against the `gale-serve` binary.
//!
//! * `serve-score`: open-loop feature-mode `POST /score` (4 rows per
//!   request) at default flags: two fixed rates and a geometric rate
//!   ladder for the capacity.
//! * `stream-mix`: `serve --stream` on a `stream-demo` bundle, `/mutate`
//!   batches on one connection beside node-mode and feature-mode `/score`
//!   on the other.
//!
//! Load comes from this process alone: one thread, at most two
//! connections (see [`crate::openloop`]).

use crate::cpu;
use crate::loops::sub_seed;
use crate::openloop::{drive, poisson_dues, Done, Req};
use crate::report::Report;
use crate::stats::{median, quantile, slope};
use gale_json::{json, Value};
use gale_loadgen::{one_shot, render_get, render_post, wait_healthy};
use gale_stream::Mutation;
use gale_tensor::{Matrix, Rng};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Feature width of the served demo models.
const DIM: usize = 8;
/// Feature rows per feature-mode `/score` request.
const ROWS: usize = 4;
/// The fixed `low` rate: far below capacity, so batches never fill and
/// latency shows the timers.
const LOW_RPS: f64 = 1_000.0;
/// The fixed `high` rate: about half the open-loop capacity at default
/// flags (about 30k requests/s on a 2-vCPU VM), where batches coalesce.
const HIGH_RPS: f64 = 16_000.0;
/// First rung of the capacity ladder.
const LADDER_START_RPS: f64 = 4_000.0;
/// p99 limit a ladder rung must meet to count toward `capacity_per_s`:
/// far above the unloaded tail (a few ms) and the stalls a shared host
/// adds, so a rung misses when the server saturates and its queue grows,
/// not when one thread was held back.
const SCORE_LIMIT_US: f64 = 50_000.0;
/// The same limit for a stream-mix ladder rung.
const MIX_LIMIT_US: f64 = 50_000.0;
/// How long a ladder rung waits for answers after its last due time; a
/// rung still waiting by then has missed its limit anyway.
const RUNG_DRAIN: Duration = Duration::from_millis(500);
/// Ladder rungs step the rate by this factor, then bisect three times
/// (a resolution of about 5%).
const LADDER_STEP: f64 = 1.5;
/// How late the generator may send before a measurement is invalid: a
/// windowed median lateness above [`LATE_P50_BOUND_US`] means it fell
/// behind its schedule, a windowed p99 above [`LATE_P99_BOUND_US`] that it
/// stalled for longer than the capacity limit. Latency counts from the due
/// time, so shorter stalls (a busy shared host holds any thread back for
/// milliseconds) are charged to the requests, never hidden.
const LATE_P50_BOUND_US: f64 = 1_000.0;
/// See [`LATE_P50_BOUND_US`].
const LATE_P99_BOUND_US: f64 = 50_000.0;
/// Nodes of the stream-mix bundle. Incremental refresh costs about 60
/// rows per mutation wherever the graph is, while the compaction threshold
/// grows with the graph (a quarter of its ~6 entries per node), so this
/// size keeps the event loop below saturation on two cores and still
/// compacts within the fixed-rate phase.
const STREAM_NODES: usize = 4_000;
/// Communities of `stream-demo` graphs (node `r` is in community `r % 8`).
const STREAM_COMMUNITIES: usize = 8;
/// Length of a stream-mix phase that compacts the overlay: the base
/// churn of [`MIX`] (about 480 overlay entries per second) needs about
/// 12.5 s to cross the compaction threshold of the bundle (a quarter of
/// its ~24k entries); the margin covers rounds whose edits overlap.
const COMPACT_SPAN: Duration = Duration::from_secs(15);
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Every n-th scored reply is compared bitwise with an in-process forward.
const SAMPLE_EVERY: usize = 20;
/// Every n-th node-mode reply of a stream-mix run is replayed and compared
/// bitwise (the replay refreshes at each checked reply, so checking all of
/// them would repeat the server's whole refresh work).
const CHECK_EVERY: usize = 8;

/// The `gale-serve` binary built beside this one.
pub struct ServeBinary(PathBuf);

impl ServeBinary {
    pub fn locate() -> Result<ServeBinary, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let path = exe.with_file_name("gale-serve");
        if path.exists() {
            Ok(ServeBinary(path))
        } else {
            Err(format!(
                "{} is missing; build gale-serve first",
                path.display()
            ))
        }
    }

    fn run(&self, args: &[&str]) -> Result<(), String> {
        let status = Command::new(&self.0)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .map_err(|e| format!("gale-serve {}: {e}", args[0]))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("gale-serve {} exited with {status}", args[0]))
        }
    }
}

/// A running server; shut down (and waited for) on drop.
struct Server {
    child: Option<Child>,
    addr: String,
    /// Feature width the served model takes (from `/healthz`).
    input_dim: usize,
}

fn free_port() -> Result<u16, String> {
    let l = std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| format!("port probe: {e}"))?;
    Ok(l.local_addr().map_err(|e| e.to_string())?.port())
}

impl Server {
    /// Boots `gale-serve serve` with `extra` flags and waits for `/healthz`.
    fn boot(bin: &ServeBinary, ckpt: &Path, extra: &[&str]) -> Result<Server, String> {
        let addr = format!("127.0.0.1:{}", free_port()?);
        let ckpt = ckpt.to_string_lossy();
        let child = Command::new(&bin.0)
            .args(["serve", "--ckpt", &ckpt, "--addr", &addr])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning gale-serve: {e}"))?;
        let mut server = Server {
            child: Some(child),
            addr,
            input_dim: 0,
        };
        server.input_dim = wait_healthy(&server.addr, Duration::from_secs(60))?;
        Ok(server)
    }

    /// CPU time the server process has used so far.
    fn cpu(&self) -> Option<Duration> {
        cpu::of_pid(self.child.as_ref()?.id())
    }

    /// Peak resident set of the server process, MB.
    fn peak_rss_mb(&self) -> Option<f64> {
        let pid = self.child.as_ref()?.id();
        let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()?;
        Some(kb / 1024.0)
    }

    fn get(&self, path: &str) -> Result<String, String> {
        let (status, body) = one_shot(&self.addr, &render_get(&self.addr, path))
            .map_err(|e| format!("GET {path}: {e}"))?;
        if status != 200 {
            return Err(format!("GET {path} answered {status}"));
        }
        Ok(String::from_utf8_lossy(&body).into_owned())
    }

    fn post(&self, path: &str, body: &str) -> Result<Value, String> {
        let (status, reply) = one_shot(&self.addr, &render_post(&self.addr, path, body))
            .map_err(|e| format!("POST {path}: {e}"))?;
        let text = String::from_utf8_lossy(&reply);
        if status != 200 {
            return Err(format!("POST {path} answered {status}: {text}"));
        }
        gale_json::from_str(&text).map_err(|e| format!("POST {path} reply: {e}"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let shutdown = render_post(&self.addr, "/admin/shutdown", "");
            if one_shot(&self.addr, &shutdown).is_err() {
                let _ = child.kill();
            }
            let _ = child.wait();
        }
    }
}

/// Latency summary of one request class.
///
/// The tail quantiles are medians over [`WINDOWS`] consecutive windows of
/// the schedule, each window's own quantile: a stall of a few milliseconds
/// on a shared host lands in one window and moves the median of the
/// windows far less than it moves one quantile over the whole leg, while a
/// real overload raises every window.
struct Lat {
    n: usize,
    failed: usize,
    p50: Option<f64>,
    p90: Option<f64>,
    p99: Option<f64>,
    /// How late the generator sent, windowed median and p99.
    late_p50: Option<f64>,
    late_p99: Option<f64>,
    /// Growth of the windows' median latency over the schedule, µs per s.
    slope: Option<f64>,
}

/// Windows a leg or rung is split into for its tail statistics.
const WINDOWS: usize = 5;

fn summarize<'a>(done: impl Iterator<Item = &'a Done>) -> Lat {
    let done: Vec<&Done> = done.collect();
    let failed = done.iter().filter(|d| d.status != 200).count();
    let ok: Vec<f64> = done
        .iter()
        .filter(|d| d.status == 200)
        .map(|d| d.latency_us)
        .collect();
    let (lo, hi) = done.iter().fold((f64::MAX, f64::MIN), |(lo, hi), d| {
        (lo.min(d.due_us), hi.max(d.due_us))
    });
    let width = ((hi - lo) / WINDOWS as f64).max(1.0);
    let mut wins: Vec<(Vec<f64>, Vec<f64>)> = vec![(Vec::new(), Vec::new()); WINDOWS];
    for d in &done {
        let w = (((d.due_us - lo) / width) as usize).min(WINDOWS - 1);
        wins[w].1.push(d.late_us);
        if d.status == 200 {
            wins[w].0.push(d.latency_us);
        }
    }
    let windowed = |q: f64, late: bool| {
        let per: Vec<f64> = wins
            .iter()
            .filter_map(|(lat, lateness)| quantile(if late { lateness } else { lat }, q))
            .collect();
        median(&per)
    };
    let (mut mids, mut meds) = (Vec::new(), Vec::new());
    for (i, (l, _)) in wins.iter().enumerate() {
        if let Some(m) = median(l) {
            mids.push((lo + width * (i as f64 + 0.5)) / 1e6);
            meds.push(m);
        }
    }
    Lat {
        n: done.len(),
        failed,
        p50: median(&ok),
        p90: windowed(0.9, false),
        p99: windowed(0.99, false),
        late_p50: windowed(0.5, true),
        late_p99: windowed(0.99, true),
        slope: slope(&mids, &meds),
    }
}

impl Lat {
    /// Whether the generator kept to its schedule (see [`LATE_P50_BOUND_US`]).
    fn on_schedule(&self) -> bool {
        self.late_p50.is_some_and(|l| l <= LATE_P50_BOUND_US)
            && self.late_p99.is_some_and(|l| l <= LATE_P99_BOUND_US)
    }

    /// A ladder rung's goodput over `span` when the rung meets `limit`
    /// without a growing backlog and with the generator on schedule.
    fn goodput_if_meets(&self, limit: f64, span: Duration) -> Option<f64> {
        let ok = self.failed == 0
            && self.p99.is_some_and(|t| t <= limit)
            && self
                .slope
                .is_some_and(|s| s * span.as_secs_f64() <= limit / 2.0)
            && self.on_schedule();
        eprintln!(
            "perfbench: rung of {} requests: p50 {:.0} us, p99 {:.0} us, slope {:.0} us/s, late {:.0} us, failed {} -> {}",
            self.n,
            self.p50.unwrap_or(f64::NAN),
            self.p99.unwrap_or(f64::NAN),
            self.slope.unwrap_or(f64::NAN),
            self.late_p99.unwrap_or(f64::NAN),
            self.failed,
            if ok { "meets" } else { "misses" }
        );
        ok.then(|| (self.n - self.failed) as f64 / span.as_secs_f64())
    }
}

/// Rows drawn like `train-demo`'s training data: standard normal, half of
/// them shifted by 2.5 in every column (its erroneous class).
fn demo_rows(rng: &mut Rng, rows: usize) -> Vec<f64> {
    let mut x = Vec::with_capacity(rows * DIM);
    for _ in 0..rows {
        let shift = if rng.chance(0.5) { 2.5 } else { 0.0 };
        for _ in 0..DIM {
            x.push(rng.gauss() + shift);
        }
    }
    x
}

fn features_body(dim: usize, x: &[f64]) -> String {
    let rows: Vec<String> = x
        .chunks(dim)
        .map(|r| {
            let cells: Vec<String> = r.iter().map(|v| format!("{v:?}")).collect();
            format!("[{}]", cells.join(","))
        })
        .collect();
    format!("{{\"features\": [{}]}}", rows.join(","))
}

/// One feature-mode request: its rows and the request.
struct ScoreReq {
    x: Vec<f64>,
    req: Req,
}

fn score_reqs(addr: &str, rate: f64, span: Duration, rng: &mut Rng) -> Vec<ScoreReq> {
    poisson_dues(rate, span, rng)
        .into_iter()
        .enumerate()
        .map(|(i, due)| {
            let x = demo_rows(rng, ROWS);
            let body = features_body(DIM, &x);
            ScoreReq {
                req: Req {
                    conn: i % 2,
                    due,
                    bytes: render_post(addr, "/score", &body),
                    keep: true,
                },
                x,
            }
        })
        .collect()
}

/// The `"probs"` rows of a `/score` reply (feature or node mode).
fn probs_of(doc: &Value) -> Option<Vec<[f64; 3]>> {
    doc.get("probs")?
        .as_array()?
        .iter()
        .map(|row| {
            let r = row.as_array()?;
            Some([
                r.first()?.as_f64()?,
                r.get(1)?.as_f64()?,
                r.get(2)?.as_f64()?,
            ])
        })
        .collect()
}

fn same_bits(a: &[f64; 3], b: &[f64; 3]) -> bool {
    a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Parses the probabilities and verdicts out of a feature-mode reply.
fn reply_probs(body: &[u8]) -> Option<(Vec<[f64; 3]>, Vec<bool>)> {
    let doc = gale_json::from_str(std::str::from_utf8(body).ok()?).ok()?;
    let probs = probs_of(&doc)?;
    let verdicts = doc
        .get("verdicts")?
        .as_array()?
        .iter()
        .map(|v| v.as_str().map(|s| s == "error"))
        .collect::<Option<Vec<_>>>()?;
    Some((probs, verdicts))
}

/// Checks served feature-mode replies: every one answered 200 with
/// verdicts that follow its probabilities, every [`SAMPLE_EVERY`]-th
/// bitwise-equal to the checkpoint's in-process f64 forward.
fn check_scores(r: &mut Report, model: &mut gale_core::Sgan, reqs: &[ScoreReq], done: &[Done]) {
    let mut out = Matrix::zeros(0, 0);
    for (i, (q, d)) in reqs.iter().zip(done).enumerate() {
        r.check(d.status == 200, || format!("/score answered {}", d.status));
        if d.status != 200 {
            continue;
        }
        let Some((probs, verdicts)) = d.body.as_deref().and_then(reply_probs) else {
            r.check(false, || {
                format!("/score reply {i} has no probs and verdicts")
            });
            continue;
        };
        let consistent = probs.len() == ROWS
            && verdicts.len() == ROWS
            && probs
                .iter()
                .zip(&verdicts)
                .all(|(p, &v)| (p[0] > p[1]) == v);
        r.check(consistent, || {
            "/score verdicts do not follow its probs".into()
        });
        if i % SAMPLE_EVERY == 0 {
            let x = Matrix::from_vec(ROWS, DIM, q.x.clone());
            model.probs3_into(&x, &mut out);
            let same = (0..ROWS)
                .all(|row| same_bits(&probs[row], &[out[(row, 0)], out[(row, 1)], out[(row, 2)]]));
            r.check(same, || {
                format!("/score reply {i} differs bitwise from the in-process forward")
            });
        }
    }
}

/// Set-up of a serving workload, repeated: build the artifact, boot the
/// server, wait for `/healthz`. Returns the median CPU time of one set-up
/// (the train-demo or stream-demo process's, the server's until healthy,
/// and this process's) and the last server (earlier ones are shut down).
fn setups(
    reps: usize,
    mut build: impl FnMut(usize) -> Result<Server, String>,
) -> Result<(f64, Server), String> {
    let mut times = Vec::new();
    let mut last = None;
    for rep in 0..reps {
        drop(last.take());
        let (own, children) = (cpu::process(), cpu::children());
        let server = build(rep)?;
        let booted = server.cpu().ok_or("reading the server's CPU time")?;
        let spent = (cpu::process() - own) + (cpu::children() - children) + booted;
        times.push(spent.as_secs_f64());
        last = Some(server);
    }
    Ok((
        median(&times).expect("repetitions"),
        last.expect("repetitions"),
    ))
}

/// Seed of the served demo checkpoint. The served model is a deployment
/// artifact, fixed across runs; a run's seed generates its traffic.
const MODEL_SEED: u64 = 7;
/// Seed of the stream-mix bundle (fixed for the same reason).
const BUNDLE_SEED: u64 = 11;

fn train_demo(bin: &ServeBinary, dir: &Path, rep: usize) -> Result<PathBuf, String> {
    let ckpt = dir.join(format!("model-{rep}.ckpt"));
    bin.run(&[
        "train-demo",
        "--out",
        &ckpt.to_string_lossy(),
        "--dim",
        &DIM.to_string(),
        "--seed",
        &MODEL_SEED.to_string(),
    ])?;
    Ok(ckpt)
}

/// Fixed-rate leg: drives `rate` for `span`, returns requests and outcomes.
fn leg(
    addr: &str,
    rate: f64,
    span: Duration,
    rng: &mut Rng,
) -> Result<(Vec<ScoreReq>, Vec<Done>), String> {
    leg_drained(addr, rate, span, rng, Duration::from_secs(5))
}

/// [`leg`] that gives up on responses `drain` after the last due time.
fn leg_drained(
    addr: &str,
    rate: f64,
    span: Duration,
    rng: &mut Rng,
    drain: Duration,
) -> Result<(Vec<ScoreReq>, Vec<Done>), String> {
    let reqs = score_reqs(addr, rate, span, rng);
    let done = drive(
        addr,
        &reqs.iter().map(|q| &q.req).collect::<Vec<_>>(),
        drain,
    )?;
    Ok((reqs, done))
}

/// Waits until the server answers `/healthz` promptly again, so a rung
/// never starts behind the backlog an overloaded rung left.
fn quiesce(addr: &str) {
    let probe = render_get(addr, "/healthz");
    let began = Instant::now();
    while began.elapsed() < Duration::from_secs(2) {
        let t = Instant::now();
        if one_shot(addr, &probe).is_ok() && t.elapsed() < Duration::from_millis(5) {
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Runs the capacity ladder: rates from `start` up by [`LADDER_STEP`]
/// until a rung misses its limit (or `budget` runs out; down instead when
/// the first rung misses), then three geometric bisection rungs.
/// `rung(rate)` drives one rung and returns its measured goodput (answered
/// requests per second) when it met the limit. Returns the goodput of the
/// highest passing rung: a measured rate, not the ladder's nominal one.
fn ladder(
    start: f64,
    budget: Duration,
    mut rung: impl FnMut(f64) -> Result<Option<f64>, String>,
) -> Result<Option<f64>, String> {
    let began = Instant::now();
    // (rate, measured goodput) of the highest passing rung; lowest failing rate.
    let (mut pass, mut fail): (Option<(f64, f64)>, Option<f64>) = (None, None);
    let mut rate = start;
    while began.elapsed() < budget {
        match rung(rate)? {
            Some(goodput) => {
                pass = Some((rate, goodput));
                rate *= LADDER_STEP;
            }
            None => {
                fail = Some(rate);
                break;
            }
        }
    }
    // A first rung that already misses: step down until one meets.
    let mut down = rate;
    while pass.is_none() && down > start / LADDER_STEP.powi(4) {
        down /= LADDER_STEP;
        match rung(down)? {
            Some(goodput) => pass = Some((down, goodput)),
            None => fail = Some(down),
        }
    }
    if let (Some((mut lo, _)), Some(mut hi)) = (pass, fail) {
        for _ in 0..3 {
            let mid = (lo * hi).sqrt();
            match rung(mid)? {
                Some(goodput) => {
                    lo = mid;
                    pass = Some((mid, goodput));
                }
                None => hi = mid,
            }
        }
    }
    Ok(pass.map(|(_, goodput)| goodput))
}

fn invalid_if_late(r: &mut Report, what: &str, lat: &Lat) {
    if !lat.on_schedule() {
        r.invalid.push(format!(
            "{what}: generator ran {:.0} us late at its median and {:.0} us at its p99 \
             (bounds {LATE_P50_BOUND_US:.0} and {LATE_P99_BOUND_US:.0} us)",
            lat.late_p50.unwrap_or(f64::NAN),
            lat.late_p99.unwrap_or(f64::NAN),
        ));
    }
}

/// The end-to-end serve-score run.
pub fn serve_score(
    bin: &ServeBinary,
    seed: u64,
    seconds: f64,
    dir: &Path,
) -> Result<Report, String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let mut r = Report::default();
    let mut ckpt = PathBuf::new();
    let (setup, server) = setups(SETUP_REPS, |rep| {
        ckpt = train_demo(bin, dir, rep)?;
        Server::boot(bin, &ckpt, &[])
    })?;
    let mut model =
        gale_core::Sgan::load(&ckpt).map_err(|e| format!("loading {}: {e}", ckpt.display()))?;
    let mut rng = Rng::seed_from_u64(sub_seed(seed, 100));
    let addr = server.addr.clone();
    let s = |share: f64| Duration::from_secs_f64(seconds * share);

    let _ = leg(&addr, LOW_RPS, s(0.03), &mut rng)?; // warm-up
    let before = server.cpu().ok_or("reading the server's CPU time")?;
    let (low_q, low_d) = leg(&addr, LOW_RPS, s(0.3), &mut rng)?;
    let (high_q, high_d) = leg(&addr, HIGH_RPS, s(0.08), &mut rng)?;
    let spent = server.cpu().ok_or("reading the server's CPU time")? - before;
    let low = summarize(low_d.iter());
    let high = summarize(high_d.iter());
    invalid_if_late(&mut r, "score_low", &low);
    invalid_if_late(&mut r, "score_high", &high);
    check_scores(&mut r, &mut model, &low_q, &low_d);
    check_scores(&mut r, &mut model, &high_q, &high_d);

    let rung_span = s(0.035).max(Duration::from_millis(500));
    let peak_rss = server.peak_rss_mb();
    let max_rps = ladder(LADDER_START_RPS, s(0.35), |rate| {
        quiesce(&addr);
        let (_, done) = leg_drained(&addr, rate, rung_span, &mut rng, RUNG_DRAIN)?;
        Ok(summarize(done.iter()).goodput_if_meets(SCORE_LIMIT_US, rung_span))
    })?;

    r.put("setup_s", Some(setup), "s");
    r.put(
        "cpu_us_per_op",
        Some(spent.as_secs_f64() * 1e6 / (low.n + high.n) as f64),
        "us",
    );
    r.put("peak_rss_mb", peak_rss, "MB");
    r.notes.push(format!(
        "serve-score wall latency: low {LOW_RPS:.0} req/s p50 {} p90 {} p99 {}; \
         high {HIGH_RPS:.0} req/s p50 {} p99 {}; capacity {} req/s at p99 <= {SCORE_LIMIT_US:.0} us",
        us(low.p50),
        us(low.p90),
        us(low.p99),
        us(high.p50),
        us(high.p99),
        max_rps.map_or("-".into(), |c| format!("{c:.0}")),
    ));
    Ok(r)
}

/// A latency for a note line: `123 us`, or `-` when unmeasured.
fn us(v: Option<f64>) -> String {
    v.map_or("-".into(), |v| format!("{v:.0} us"))
}

/// Median of one wide-event field over `/debug/trace` events.
fn event_median(events: &[Value], field: &str) -> Option<f64> {
    let xs: Vec<f64> = events
        .iter()
        .filter_map(|e| e.get(field)?.as_f64())
        .collect();
    median(&xs)
}

/// The answered requests' wide events `/debug/trace` holds (reading
/// empties its ring).
fn trace_events(server: &Server) -> Result<Vec<Value>, String> {
    let doc = gale_json::from_str(&server.get("/debug/trace")?)
        .map_err(|e| format!("/debug/trace: {e}"))?;
    Ok(doc
        .get("trace")
        .and_then(Value::as_array)
        .map(|a| {
            a.iter()
                .filter(|e| e.get("status").and_then(Value::as_u64) == Some(200))
                .cloned()
                .collect()
        })
        .unwrap_or_default())
}

/// A counter's value in the `/metrics` text exposition.
fn prom_value(text: &str, name: &str) -> Option<f64> {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
}

/// The traced serve-score run.
pub fn serve_score_traced(
    bin: &ServeBinary,
    seed: u64,
    seconds: f64,
    dir: &Path,
) -> Result<Report, String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let mut r = Report::default();
    let ckpt = train_demo(bin, dir, 0)?;
    let mut rng = Rng::seed_from_u64(sub_seed(seed, 100));
    let s = |share: f64| Duration::from_secs_f64(seconds * share);

    // Untraced server as shipped: the reference for the overhead ratio and
    // the high-rate figures.
    let plain = Server::boot(bin, &ckpt, &[])?;
    let _ = leg(&plain.addr, LOW_RPS, s(0.05), &mut rng)?;
    let (_, low_d) = leg(&plain.addr, LOW_RPS, s(0.2), &mut rng)?;
    let (_, high_d) = leg(&plain.addr, HIGH_RPS, s(0.15), &mut rng)?;
    drop(plain);
    let low = summarize(low_d.iter());
    let high = summarize(high_d.iter());
    r.tally((low.n + high.n) as u64, (low.failed + high.failed) as u64);
    r.put("client.score_low.p50_us", low.p50, "us");
    r.put("client.score_low.p99_us", low.p99, "us");
    r.put("client.score_high.p50_us", high.p50, "us");
    r.put("client.score_high.p99_us", high.p99, "us");
    r.put("client.late_p99_us", high.late_p99, "us");
    r.put("client.backlog_slope", high.slope, "us/s");

    // Every request traced.
    let traced = Server::boot(bin, &ckpt, &["--trace-sample", "1"])?;
    let _ = traced.get("/debug/trace")?; // empties the ring of boot probes
    let (_, tlow_d) = leg(&traced.addr, LOW_RPS, s(0.2), &mut rng)?;
    let tlow = summarize(tlow_d.iter());
    r.tally(tlow.n as u64, tlow.failed as u64);
    let events = trace_events(&traced)?;
    let stages = [
        "read", "parse", "dispatch", "queue", "assembly", "forward", "write",
    ];
    for st in stages {
        r.put(
            &format!("serve.stage.{st}_us"),
            event_median(&events, &format!("{st}_us")),
            "us",
        );
    }
    let gaps: Vec<f64> = events
        .iter()
        .filter_map(|e| {
            let total = e.get("total_us")?.as_f64()?;
            let parts: Option<f64> = stages
                .iter()
                .map(|st| e.get(&format!("{st}_us"))?.as_f64())
                .sum();
            Some(total - parts?)
        })
        .collect();
    r.put("serve.unattributed_us", median(&gaps), "us");
    let (_, thigh_d) = leg(&traced.addr, HIGH_RPS, s(0.1), &mut rng)?;
    let thigh = summarize(thigh_d.iter());
    r.tally(thigh.n as u64, thigh.failed as u64);
    r.put(
        "serve.batch_rows",
        event_median(&trace_events(&traced)?, "batch_rows"),
        "rows",
    );
    let metrics = traced.get("/metrics")?;
    r.put("serve.shed", prom_value(&metrics, "serve_shed"), "count");
    drop(traced);
    r.put(
        "obs.overhead_ratio",
        tlow.p50.zip(low.p50).map(|(t, u)| t / u),
        "ratio",
    );

    // In-process layer probes.
    let mut model =
        gale_core::Sgan::load(&ckpt).map_err(|e| format!("loading {}: {e}", ckpt.display()))?;
    let x64 = demo_rows(&mut rng, 64);
    let x64 = Matrix::from_vec(64, DIM, x64);
    let mut out = Matrix::zeros(0, 0);
    let mut fwd = Vec::new();
    for _ in 0..200 {
        let t = Instant::now();
        model.probs3_into(&x64, &mut out);
        fwd.push(t.elapsed().as_secs_f64() * 1e6);
    }
    r.put("core.forward_us", median(&fwd), "us");
    let x4 = demo_rows(&mut rng, ROWS);
    let body = features_body(DIM, &x4);
    let mut parse = Vec::new();
    for _ in 0..2000 {
        let t = Instant::now();
        let doc = gale_json::from_str(&body);
        parse.push(t.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(doc.is_ok());
    }
    r.put("json.parse_us", median(&parse), "us");
    let (pool, handles) =
        gale_serve::batcher::ShardPool::spawn(model, 1, &gale_serve::BatchConfig::default());
    let mut rtt = Vec::new();
    for _ in 0..100 {
        let t = Instant::now();
        let reply = pool
            .submit(x4.clone(), ROWS)
            .map_err(|e| format!("submit: {e:?}"))?;
        reply.recv().map_err(|e| format!("batcher reply: {e}"))?;
        rtt.push(t.elapsed().as_secs_f64() * 1e6);
    }
    drop(pool);
    for h in handles {
        h.join().map_err(|_| "a shard thread panicked")?;
    }
    r.put("serve.batcher.rtt_us", median(&rtt), "us");

    let total = event_median(&events, "total_us");
    let staged: Option<f64> = stages
        .iter()
        .map(|st| event_median(&events, &format!("{st}_us")))
        .sum();
    if let (Some(total), Some(staged), Some(client)) = (total, staged, tlow.p50) {
        r.notes.push(format!(
            "attribution serve-score: stage medians cover {:.1}% of the server's request \
             total ({total:.0} us); the server total is {:.1}% of the client p50 ({client:.0} us)",
            100.0 * staged / total,
            100.0 * total / client,
        ));
    }
    Ok(r)
}

/// One stream-mix request class.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Class {
    Mutate,
    Node,
    Feature,
}

/// A scheduled stream-mix request.
struct MixReq {
    class: Class,
    /// Mutation batch (for `Mutate`).
    batch: Vec<Mutation>,
    /// Nodes asked for (for `Node`).
    nodes: Vec<usize>,
    req: Req,
}

/// Traffic shape of the mix at its base rate.
struct Mix {
    mutate_rps: f64,
    rounds_per_batch: usize,
    node_rps: f64,
    feature_rps: f64,
}

/// Base rates: 360 mutations and 300 reads per second. Every round
/// removes a distinct base edge and adds a new one, so the overlay churn
/// (about 480 entries per second) crosses the compaction threshold of the
/// bundle (a quarter of its ~24k entries) within the fixed-rate phase.
const MIX: Mix = Mix {
    mutate_rps: 40.0,
    rounds_per_batch: 3,
    node_rps: 150.0,
    feature_rps: 150.0,
};

/// Stride of the ring-edge removals: coprime to the node count, so
/// successive rounds remove distinct edges for a whole cycle of the graph.
const REMOVE_STRIDE: usize = 7_919;

/// Round `round` of the mutation stream, in the style of `stream_round`:
/// an attribute rewrite, a ring-edge removal, a same-community edge
/// insertion.
fn mutation_round(rng: &mut Rng, n: usize, round: usize) -> Vec<Mutation> {
    let node = rng.below(n);
    let attrs = (0..DIM).map(|_| rng.gauss()).collect();
    let ru = (round * REMOVE_STRIDE) % n;
    let au = rng.below(n);
    let hop = 1 + rng.below(n / STREAM_COMMUNITIES - 1);
    vec![
        Mutation::UpdateAttrs { node, attrs },
        Mutation::RemoveEdge {
            u: ru,
            v: (ru + STREAM_COMMUNITIES) % n,
        },
        Mutation::AddEdge {
            u: au,
            v: (au + hop * STREAM_COMMUNITIES) % n,
            weight: 1.0,
        },
    ]
}

fn mutation_nodes(m: &Mutation) -> Vec<usize> {
    match m {
        Mutation::UpdateAttrs { node, .. } | Mutation::RemoveNode { node } => vec![*node],
        Mutation::AddEdge { u, v, .. } | Mutation::RemoveEdge { u, v } => vec![*u, *v],
        Mutation::AddNode { .. } => Vec::new(),
    }
}

/// Builds a mix schedule at `scale` × the base rates over `span`. Node
/// reads ask for two nodes touched by the latest mutation batch due before
/// them and two random nodes.
fn mix_reqs(
    addr: &str,
    dim: usize,
    scale: f64,
    span: Duration,
    rng: &mut Rng,
    round: &mut usize,
) -> Vec<MixReq> {
    let n = STREAM_NODES;
    let mut out: Vec<MixReq> = Vec::new();
    for due in poisson_dues(MIX.mutate_rps * scale, span, rng) {
        let mut batch = Vec::with_capacity(3 * MIX.rounds_per_batch);
        for _ in 0..MIX.rounds_per_batch {
            batch.extend(mutation_round(rng, n, *round));
            *round += 1;
        }
        let wire: Vec<Value> = batch.iter().map(Mutation::to_json).collect();
        let body = json!({"mutations": Value::Array(wire)}).to_string();
        out.push(MixReq {
            class: Class::Mutate,
            batch,
            nodes: Vec::new(),
            req: Req {
                conn: 0,
                due,
                bytes: render_post(addr, "/mutate", &body),
                keep: true,
            },
        });
    }
    let mut reads: Vec<(Duration, Class)> = poisson_dues(MIX.node_rps * scale, span, rng)
        .into_iter()
        .map(|d| (d, Class::Node))
        .chain(
            poisson_dues(MIX.feature_rps * scale, span, rng)
                .into_iter()
                .map(|d| (d, Class::Feature)),
        )
        .collect();
    reads.sort_by_key(|(d, _)| *d);
    let mut m = 0usize;
    for (due, class) in reads {
        while m + 1 < out.len() && out[m + 1].req.due <= due {
            m += 1;
        }
        let mut nodes = Vec::new();
        let body = match class {
            Class::Node => {
                let touched = out
                    .get(m)
                    .filter(|b| b.req.due <= due)
                    .map(|b| b.batch.iter().flat_map(mutation_nodes).collect::<Vec<_>>())
                    .unwrap_or_default();
                for _ in 0..2 {
                    nodes.push(if touched.is_empty() {
                        rng.below(n)
                    } else {
                        *rng.choose(&touched)
                    });
                }
                nodes.push(rng.below(n));
                nodes.push(rng.below(n));
                json!({"nodes": Value::Array(nodes.iter().map(|&v| Value::Int(v as i64)).collect())}).to_string()
            }
            _ => features_body(
                dim,
                &(0..ROWS * dim).map(|_| rng.gauss()).collect::<Vec<_>>(),
            ),
        };
        out.push(MixReq {
            class,
            batch: Vec::new(),
            nodes,
            req: Req {
                conn: 1,
                due,
                bytes: render_post(addr, "/score", &body),
                keep: class == Class::Node,
            },
        });
    }
    out.sort_by_key(|q| q.req.due);
    out
}

/// Latency summary of the requests of a mix phase whose class passes `keep`.
fn summarize_mix(phase: &(Vec<MixReq>, Vec<Done>), keep: impl Fn(Class) -> bool) -> Lat {
    let (reqs, done) = phase;
    summarize(
        reqs.iter()
            .zip(done)
            .filter(|(q, _)| keep(q.class))
            .map(|(_, d)| d),
    )
}

/// Drives a mix schedule; returns the requests and outcomes.
fn drive_mix(
    server: &Server,
    scale: f64,
    span: Duration,
    rng: &mut Rng,
    round: &mut usize,
    drain: Duration,
) -> Result<(Vec<MixReq>, Vec<Done>), String> {
    let reqs = mix_reqs(&server.addr, server.input_dim, scale, span, rng, round);
    let done = drive(
        &server.addr,
        &reqs.iter().map(|q| &q.req).collect::<Vec<_>>(),
        drain,
    )?;
    Ok((reqs, done))
}

fn stream_demo(bin: &ServeBinary, dir: &Path, rep: usize) -> Result<PathBuf, String> {
    let bundle = dir.join(format!("bundle-{rep}"));
    bin.run(&[
        "stream-demo",
        "--out",
        &bundle.to_string_lossy(),
        "--nodes",
        &STREAM_NODES.to_string(),
        "--dim",
        &DIM.to_string(),
        "--seed",
        &BUNDLE_SEED.to_string(),
    ])?;
    Ok(bundle)
}

fn boot_stream(bin: &ServeBinary, bundle: &Path, extra: &[&str]) -> Result<Server, String> {
    let mut args = vec!["--stream", bundle.to_str().ok_or("non-UTF-8 bundle path")?];
    args.extend_from_slice(extra);
    Server::boot(bin, &bundle.join("sgan.ckpt"), &args)
}

/// Per-phase replay figures (the in-process `StreamEngine` side).
#[derive(Default)]
struct Replay {
    apply_us: Vec<f64>,
    refresh_us: Vec<f64>,
    score_us: Vec<f64>,
    rows_refreshed: usize,
    mutations: usize,
    admitted: usize,
    compactions: u64,
}

/// Replays every mutation batch, in the order the server answered them,
/// into an engine loaded from the same bundle, and checks that:
/// the server's admissions and graph versions match the engine's, the
/// versions never run backwards on either connection, and every node
/// verdict the server returned is bitwise-equal to the engine's at the
/// graph version the reply names.
fn replay(
    r: &mut Report,
    bundle: &Path,
    phases: &[(Vec<MixReq>, Vec<Done>)],
    check_every: usize,
) -> Result<(Replay, gale_stream::StreamEngine), String> {
    let mut engine = gale_stream::load_bundle(bundle, gale_stream::StreamConfig::default())
        .map_err(|e| format!("loading {}: {e}", bundle.display()))?;
    let mut out = Replay::default();
    // Node replies grouped by the graph version they were scored at.
    let mut node_replies: Vec<(u64, Vec<usize>, Vec<[f64; 3]>)> = Vec::new();
    let mut batches: Vec<(&[Mutation], Value)> = Vec::new();
    let (mut last_mut_v, mut last_read_v) = (0u64, 0u64);
    let mut reads = 0usize;
    for (reqs, done) in phases {
        for (q, d) in reqs.iter().zip(done) {
            r.check(d.status == 200, || {
                format!("{:?} request answered {}", q.class, d.status)
            });
            if q.class == Class::Feature || d.status != 200 {
                continue;
            }
            let Some(doc) = d
                .body
                .as_deref()
                .and_then(|b| std::str::from_utf8(b).ok())
                .and_then(|t| gale_json::from_str(t).ok())
            else {
                r.check(false, || format!("{:?} reply is not JSON", q.class));
                continue;
            };
            let v = doc
                .get("graph_version")
                .and_then(Value::as_u64)
                .unwrap_or(0);
            match q.class {
                Class::Mutate => {
                    r.check(v >= last_mut_v, || {
                        format!("/mutate graph_version ran backwards: {last_mut_v} -> {v}")
                    });
                    last_mut_v = v;
                    batches.push((&q.batch, doc));
                }
                Class::Node => {
                    r.check(v >= last_read_v, || {
                        format!("node /score graph_version ran backwards: {last_read_v} -> {v}")
                    });
                    last_read_v = v;
                    let probs = probs_of(&doc).unwrap_or_default();
                    if reads.is_multiple_of(check_every) {
                        node_replies.push((v, q.nodes.clone(), probs));
                    }
                    reads += 1;
                }
                Class::Feature => {}
            }
        }
    }
    node_replies.sort_by_key(|(v, _, _)| *v);
    let mut next_reply = 0usize;
    let mut check_at_version = |engine: &mut gale_stream::StreamEngine,
                                out: &mut Replay,
                                r: &mut Report| {
        let v = engine.graph_version();
        while next_reply < node_replies.len() && node_replies[next_reply].0 <= v {
            let (rv, nodes, probs) = &node_replies[next_reply];
            next_reply += 1;
            if *rv < v {
                r.check(false, || {
                    format!("node reply at graph version {rv} matches no mutation prefix")
                });
                continue;
            }
            let (refreshes, refresh_ns) = (engine.refreshes, engine.refresh_ns);
            let dirty = engine.dirty_count();
            let t = Instant::now();
            let scores = engine.score_nodes(nodes);
            out.score_us.push(t.elapsed().as_secs_f64() * 1e6);
            if engine.refreshes > refreshes {
                out.refresh_us
                    .push((engine.refresh_ns - refresh_ns) as f64 / 1e3);
                out.rows_refreshed += dirty;
            }
            let same = scores.is_ok_and(|s| {
                s.len() == probs.len() && s.iter().zip(probs).all(|(a, b)| same_bits(&a.probs, b))
            });
            r.check(same, || {
                format!("node verdicts at graph version {rv} differ from the replayed engine")
            });
        }
    };
    check_at_version(&mut engine, &mut out, r);
    for (batch, doc) in &batches {
        let t = Instant::now();
        let report = engine
            .apply(batch)
            .map_err(|e| format!("replaying a batch: {e}"))?;
        out.apply_us.push(t.elapsed().as_secs_f64() * 1e6);
        out.mutations += report.outcomes.len();
        out.admitted += report.outcomes.iter().filter(|o| o.admitted).count();
        let served: Vec<bool> = doc
            .get("outcomes")
            .and_then(Value::as_array)
            .map(|a| {
                a.iter()
                    .filter_map(|o| o.get("admitted")?.as_bool())
                    .collect()
            })
            .unwrap_or_default();
        let mine: Vec<bool> = report.outcomes.iter().map(|o| o.admitted).collect();
        r.check(served == mine, || {
            "served admissions differ from the replayed engine".into()
        });
        let served_v = doc.get("graph_version").and_then(Value::as_u64);
        r.check(served_v == Some(report.graph_version), || {
            format!(
                "served graph_version {served_v:?} vs replayed {}",
                report.graph_version
            )
        });
        check_at_version(&mut engine, &mut out, r);
    }
    r.check(next_reply == node_replies.len(), || {
        format!(
            "{} node replies name graph versions no batch reached",
            node_replies.len() - next_reply
        )
    });
    out.compactions = engine.graph_compactions();
    Ok((out, engine))
}

/// Final read: every node in one node-mode request, checked bitwise
/// against the replayed engine (which has applied every batch the server
/// answered).
fn final_check(
    r: &mut Report,
    server: &Server,
    engine: &mut gale_stream::StreamEngine,
) -> Result<(), String> {
    let nodes: Vec<usize> = (0..engine.node_count()).collect();
    let body =
        json!({"nodes": Value::Array(nodes.iter().map(|&v| Value::Int(v as i64)).collect())})
            .to_string();
    let served = probs_of(&server.post("/score", &body)?).unwrap_or_default();
    let mine = engine.score_nodes(&nodes)?;
    let same = served.len() == mine.len()
        && mine
            .iter()
            .zip(&served)
            .all(|(m, s)| same_bits(&m.probs, s));
    r.check(same, || {
        "final node verdicts differ from the replayed engine".into()
    });
    Ok(())
}

/// The end-to-end stream-mix run.
pub fn stream_mix(
    bin: &ServeBinary,
    seed: u64,
    seconds: f64,
    dir: &Path,
) -> Result<Report, String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let mut r = Report::default();
    let mut bundle = PathBuf::new();
    let (setup, server) = setups(SETUP_REPS, |rep| {
        bundle = stream_demo(bin, dir, rep)?;
        boot_stream(bin, &bundle, &[])
    })?;
    let mut rng = Rng::seed_from_u64(sub_seed(seed, 200));
    let mut round = rng.below(STREAM_NODES);
    let s = |share: f64| Duration::from_secs_f64(seconds * share);
    let before = server.cpu().ok_or("reading the server's CPU time")?;
    let phases = [drive_mix(
        &server,
        1.0,
        s(0.8).max(COMPACT_SPAN),
        &mut rng,
        &mut round,
        Duration::from_secs(5),
    )?];
    let spent = server.cpu().ok_or("reading the server's CPU time")? - before;
    let mutate = summarize_mix(&phases[0], |c| c == Class::Mutate);
    let reads = summarize_mix(&phases[0], |c| c != Class::Mutate);
    invalid_if_late(&mut r, "stream-mix", &mutate);
    invalid_if_late(&mut r, "stream-mix", &reads);

    let (rep, mut engine) = replay(&mut r, &bundle, &phases, CHECK_EVERY)?;
    r.check(rep.compactions >= 1, || {
        "the fixed-rate phase never compacted the overlay".into()
    });
    final_check(&mut r, &server, &mut engine)?;
    let peak_rss = server.peak_rss_mb();

    // Capacity probes: their outcomes only decide whether a rung passes.
    let rung_span = s(0.04).max(Duration::from_millis(600));
    let capacity = ladder(1.0, s(0.2), |scale| {
        quiesce(&server.addr);
        let (_, done) = drive_mix(&server, scale, rung_span, &mut rng, &mut round, RUNG_DRAIN)?;
        Ok(summarize(done.iter()).goodput_if_meets(MIX_LIMIT_US, rung_span))
    })?;

    r.put("setup_s", Some(setup), "s");
    r.put(
        "cpu_us_per_op",
        Some(spent.as_secs_f64() * 1e6 / phases[0].1.len() as f64),
        "us",
    );
    r.put("peak_rss_mb", peak_rss, "MB");
    r.notes.push(format!(
        "stream-mix wall latency: /mutate p50 {} p90 {} p99 {}; reads p50 {} p99 {}; \
         capacity {} req/s at p99 <= {MIX_LIMIT_US:.0} us",
        us(mutate.p50),
        us(mutate.p90),
        us(mutate.p99),
        us(reads.p50),
        us(reads.p99),
        capacity.map_or("-".into(), |c| format!("{c:.0}")),
    ));
    Ok(r)
}

/// The traced stream-mix run.
pub fn stream_mix_traced(
    bin: &ServeBinary,
    seed: u64,
    seconds: f64,
    dir: &Path,
) -> Result<Report, String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let mut r = Report::default();
    let bundle = stream_demo(bin, dir, 0)?;
    let mut rng = Rng::seed_from_u64(sub_seed(seed, 200));
    let mut round = rng.below(STREAM_NODES);
    let s = |share: f64| Duration::from_secs_f64(seconds * share);

    let plain = boot_stream(bin, &bundle, &[])?;
    let phase = drive_mix(
        &plain,
        1.0,
        s(0.45).max(COMPACT_SPAN),
        &mut rng,
        &mut round,
        Duration::from_secs(5),
    )?;
    drop(plain);
    let of = |c: Class| summarize_mix(&phase, |k| k == c);
    let (mutate, node, feature) = (of(Class::Mutate), of(Class::Node), of(Class::Feature));
    let all = summarize(phase.1.iter());
    r.put("client.mutate.p50_us", mutate.p50, "us");
    r.put("client.mutate.p99_us", mutate.p99, "us");
    r.put("client.node_score.p50_us", node.p50, "us");
    r.put("client.node_score.p99_us", node.p99, "us");
    r.put("client.feature_score.p99_us", feature.p99, "us");
    r.put("client.late_p99_us", all.late_p99, "us");
    r.put("client.backlog_slope", all.slope, "us/s");
    let phases = [phase];
    let (rep, _) = replay(&mut r, &bundle, &phases, 1)?;
    r.check(rep.compactions >= 1, || {
        "the traced phase never compacted the overlay".into()
    });
    r.put("stream.apply_us", median(&rep.apply_us), "us");
    r.put("stream.refresh_us", median(&rep.refresh_us), "us");
    r.put("stream.score_nodes_us", median(&rep.score_us), "us");
    r.put(
        "stream.rows_refreshed_per_dirty",
        (rep.mutations > 0).then(|| rep.rows_refreshed as f64 / rep.mutations as f64),
        "rows",
    );
    r.put(
        "stream.admitted_ratio",
        (rep.mutations > 0).then(|| rep.admitted as f64 / rep.mutations as f64),
        "ratio",
    );
    r.put("stream.compactions", Some(rep.compactions as f64), "count");

    let traced = boot_stream(bin, &bundle, &["--trace-sample", "1"])?;
    let tphase = drive_mix(
        &traced,
        1.0,
        s(0.45),
        &mut rng,
        &mut round,
        Duration::from_secs(5),
    )?;
    drop(traced);
    let tall = summarize(tphase.1.iter());
    r.tally(tall.n as u64, tall.failed as u64);
    let tmutate = summarize_mix(&tphase, |c| c == Class::Mutate);
    r.put(
        "obs.overhead_ratio",
        tmutate.p50.zip(mutate.p50).map(|(t, u)| t / u),
        "ratio",
    );
    if let (Some(m), Some(a), Some(rf)) =
        (mutate.p50, median(&rep.apply_us), median(&rep.refresh_us))
    {
        r.notes.push(format!(
            "attribution stream-mix: in-process apply ({a:.0} us) covers {:.1}% of /mutate p50 \
             ({m:.0} us); one refresh takes {rf:.0} us on the same event-loop thread",
            100.0 * a / m
        ));
    }
    Ok(r)
}
