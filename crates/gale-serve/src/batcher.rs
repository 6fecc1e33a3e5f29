//! The scorer shards: model replicas, per-tick batching, and hot reload.
//!
//! A [`ShardPool`] holds `N` shards. Every shard owns a forward-only
//! [`SganInfer<E>`] replica — the discriminator alone, lowered from one
//! decoded model, so all same-precision shards score bitwise-identically —
//! behind its own lock, plus a pooled [`Workspace<E>`], so steady-state
//! serving does not allocate. The pool runs no threads: whoever holds a
//! shard's lock scores on its own thread.
//!
//! * The event loop that owns shard `i` gathers one tick's feature jobs
//!   ([`ShardPool::admit`] bounds them at `queue_capacity`; the rest are
//!   shed) and scores them with [`ShardPool::score_jobs`] in forwards of
//!   at most `max_batch` rows each. This is greedy draining: a batch holds
//!   exactly what arrived since the previous tick and never waits for
//!   more.
//! * In-process callers ([`ShardPool::score`], [`ShardPool::submit`]) pick
//!   the shard with the fewest waiting callers, wait for its lock, and run
//!   a forward over their own rows. Once `queue_capacity` callers already
//!   wait on that shard, the call sheds instead.
//!
//! Each shard runs at a fixed [`Precision`] chosen at construction
//! ([`ShardPool::new`]); it is the replica's element type, and the one
//! forward body narrows features into it on batch assembly and widens
//! probabilities back to f64 on reply, so the wire format never changes.
//! `F64` replicas reproduce `Sgan::probs3_into` bit for bit. `F32` trades
//! that guarantee for bandwidth: divergence against f64 is bounded by the
//! committed tolerance corpus (`BENCH_precision.json`), and replies stamp
//! their [`ScoreReply::precision`] so clients can tell.
//!
//! Hot reload ([`ShardPool::reload`]) decodes and validates the new
//! checkpoint *once* on the calling thread, lowers it once per shard at
//! that shard's precision (all-or-nothing — a checkpoint that fails to
//! decode swaps nothing), then swaps each replica in under that shard's
//! lock. A forward holds the lock for its whole batch, so every row of any
//! single batch is scored by exactly one model version, and no request is
//! ever dropped: jobs scored across the swap simply run under whichever
//! version holds the lock when their batch starts.

use crate::metrics;
use gale_core::{Sgan, SganInfer};
use gale_nn::checkpoint::CkptError;
use gale_tensor::{Element, Workspace};
use std::path::Path;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Batching knobs.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Row budget per forward pass: a tick's jobs are split into forwards
    /// of at most this many rows (a single larger job runs alone).
    pub max_batch: usize,
    /// Jobs a shard accepts per tick (event loop) or lets wait for its
    /// lock (in-process callers); jobs beyond it are shed.
    pub queue_capacity: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            max_batch: 64,
            queue_capacity: 128,
        }
    }
}

/// Arithmetic width a scorer shard runs its forward passes at.
///
/// Every shard serves a one-way inference lowering of the checkpoint.
/// `F64` is the training precision: bitwise-identical to calling the
/// checkpointed model in process. `F32` has roughly twice the effective
/// memory bandwidth on this repo's GEMM and distance kernels,
/// deterministic per-precision (fixed 16-lane reduction chains,
/// thread-count invariant) but *not* bit-equal to f64; its divergence is
/// bounded by the committed tolerance baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Precision {
    /// Double precision — the default, bit-exact with training.
    #[default]
    F64,
    /// Single precision.
    F32,
}

impl Precision {
    /// Parses `"f64"` / `"f32"` (the `--precision` flag vocabulary).
    pub fn parse(s: &str) -> Option<Precision> {
        match s {
            "f64" => Some(Precision::F64),
            "f32" => Some(Precision::F32),
            _ => None,
        }
    }

    /// The flag/JSON spelling: `"f64"` or `"f32"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Precision::F64 => "f64",
            Precision::F32 => "f32",
        }
    }

    /// The precision of element type `E`.
    fn of<E: Element>() -> Precision {
        if E::BITS == 32 {
            Precision::F32
        } else {
            Precision::F64
        }
    }

    /// Mantissa-carrying width in bits (64 or 32); what `/metrics` and
    /// wide events report.
    pub fn bits(self) -> u32 {
        match self {
            Precision::F64 => 64,
            Precision::F32 => 32,
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One feature job: `rows` feature rows, flattened row-major.
#[derive(Debug)]
pub struct Job {
    /// The rows, `rows * input_dim` values.
    pub features: Vec<f64>,
    /// Number of rows.
    pub rows: usize,
    /// When the job was admitted; its queue time counts from here.
    pub enqueued: Instant,
}

/// A scored job's probabilities, with the placement and stage timings the
/// connection layer needs to finish the request's wide event.
#[derive(Debug)]
pub struct ScoreReply {
    /// Monotonic model generation that scored these rows. Every row in the
    /// reply was scored by exactly this version.
    pub version: u64,
    /// `rows * 3` probabilities, one `{error, correct, synthetic}` triple
    /// per row.
    pub probs: Vec<f64>,
    /// Shard that ran the forward pass.
    pub shard: u32,
    /// Total rows in the batch this job rode in.
    pub batch_rows: u32,
    /// Admitted until its batch took the shard, microseconds.
    pub queue_us: u32,
    /// Batch assembly (copying the rows into the forward's input buffer),
    /// microseconds.
    pub assembly_us: u32,
    /// The batched forward pass, microseconds (shared by every job in the
    /// batch).
    pub forward_us: u32,
    /// Arithmetic width of the shard that scored these rows.
    pub precision: Precision,
}

/// Why a job was not admitted.
#[derive(Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The shard already holds `queue_capacity` jobs — retry later.
    Overloaded,
}

/// Why a hot reload did not happen. Whatever the cause, the shards keep
/// serving the model they already had.
#[derive(Debug)]
pub enum ReloadError {
    /// The checkpoint could not be read or decoded (typed, never a panic).
    Ckpt(CkptError),
    /// The checkpoint holds a model with a different input dimension than
    /// the one being served; swapping it in would break every client.
    DimMismatch {
        /// Input dimension the pool serves.
        expected: usize,
        /// Input dimension found in the checkpoint.
        found: usize,
    },
}

impl std::fmt::Display for ReloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReloadError::Ckpt(e) => write!(f, "{e}"),
            ReloadError::DimMismatch { expected, found } => write!(
                f,
                "checkpoint input_dim {found} does not match the served model's {expected}"
            ),
        }
    }
}

impl From<CkptError> for ReloadError {
    fn from(e: CkptError) -> Self {
        ReloadError::Ckpt(e)
    }
}

/// Live per-shard counters, written by whoever scores on the shard and
/// read by `/debug/queues`. All relaxed: the endpoint reports a consistent
/// *recent* picture, not a linearized snapshot.
#[derive(Debug, Default)]
struct ShardStats {
    /// Jobs in the forward pass running right now.
    in_flight: AtomicU64,
    /// Rows in the most recently executed batch.
    last_batch_rows: AtomicU64,
    /// Model generation that scored the most recent batch.
    last_batch_version: AtomicU64,
    /// Batched forward passes this shard has executed.
    batches: AtomicU64,
    /// Scoring-buffer takes this shard's replicas served from the pool.
    pool_hits: AtomicU64,
    /// Scoring-buffer takes that had to allocate.
    pool_misses: AtomicU64,
}

/// One shard's `/debug/queues` row.
#[derive(Debug, Clone, Copy)]
pub struct ShardSnapshot {
    /// Jobs admitted and not yet picked into a forward.
    pub depth: i64,
    /// Jobs in the forward pass running right now.
    pub in_flight: u64,
    /// Rows in the most recent batch (0 before the first).
    pub last_batch_rows: u64,
    /// Version that scored the most recent batch (0 before the first).
    pub last_batch_version: u64,
    /// Forward passes executed.
    pub batches: u64,
    /// Scoring-buffer takes served from the shard's pool.
    pub pool_hits: u64,
    /// Scoring-buffer takes that allocated.
    pub pool_misses: u64,
    /// Arithmetic width this shard scores at (fixed at construction).
    pub precision: Precision,
}

/// The one interface a shard scores through: a replica at a fixed
/// precision, behind the shard lock.
trait Scorer: Send {
    /// One forward over `batch` (`rows` rows in all), pushing one reply per
    /// job onto `out`.
    fn forward(
        &mut self,
        shard: u32,
        batch: &[Job],
        rows: usize,
        stats: &ShardStats,
        out: &mut Vec<ScoreReply>,
    );
}

/// Builds a shard's replica of a decoded model at the given version; picked
/// once per shard, at construction, from its precision.
type Lower = fn(&Sgan, u64) -> Box<dyn Scorer>;

/// A shard's forward-only replica over element `E` and its scoring
/// buffers; lives behind the shard lock.
struct Replica<E: Element> {
    model: SganInfer<E>,
    version: u64,
    ws: Workspace<E>,
    /// Widened probabilities of the current batch, reused across batches
    /// so the widen step does not allocate.
    scored: Vec<f64>,
    /// Workspace `(hits, misses)` already mirrored into `/metrics`.
    reported: (u64, u64),
}

impl<E: Element> Replica<E> {
    /// Lowers `model` into an `E` replica scoring as model generation
    /// `version`.
    fn lower(model: &Sgan, version: u64) -> Box<dyn Scorer> {
        Box::new(Replica {
            model: model.to_infer::<E>(),
            version,
            ws: Workspace::<E>::new(),
            scored: Vec::new(),
            reported: (0, 0),
        })
    }
}

impl<E: Element> Scorer for Replica<E> {
    /// Features are narrowed to `E` during assembly and probabilities
    /// widened back right after the forward, so everything downstream stays
    /// f64 (both conversions are the identity for `f64` replicas).
    fn forward(
        &mut self,
        shard: u32,
        batch: &[Job],
        rows: usize,
        stats: &ShardStats,
        out: &mut Vec<ScoreReply>,
    ) {
        let picked = Instant::now();
        // Stored, not added: the shard lock admits one forward at a time,
        // so a forward that panicked leaves no stale count behind.
        stats.in_flight.store(batch.len() as u64, Ordering::Relaxed);
        let Replica {
            model,
            version,
            ws,
            scored,
            reported,
        } = self;
        let mut input = ws.take(rows, model.input_dim());
        let mut offset = 0usize;
        for job in batch {
            let dst = &mut input.data_mut()[offset..offset + job.features.len()];
            for (d, &s) in dst.iter_mut().zip(&job.features) {
                *d = E::from_f64(s);
            }
            offset += job.features.len();
        }
        let mut probs = ws.take(rows, 3);
        let forward_started = Instant::now();
        model.probs3_into(&input, &mut probs);
        let forward_us = us32(forward_started.elapsed());
        scored.clear();
        scored.extend(probs.data().iter().map(|&v| v.to_f64()));
        ws.give(input);
        ws.give(probs);
        metrics::batches().add(1);
        metrics::rows().add(rows as u64);
        metrics::batch_rows().record(rows as f64);
        stats.batches.fetch_add(1, Ordering::Relaxed);
        stats.last_batch_rows.store(rows as u64, Ordering::Relaxed);
        stats.last_batch_version.store(*version, Ordering::Relaxed);
        let (hits, misses) = ws.stats();
        let (new_hits, new_misses) = (hits - reported.0, misses - reported.1);
        metrics::pool_hits().add(new_hits);
        metrics::pool_misses().add(new_misses);
        stats.pool_hits.fetch_add(new_hits, Ordering::Relaxed);
        stats.pool_misses.fetch_add(new_misses, Ordering::Relaxed);
        *reported = (hits, misses);

        let precision = Precision::of::<E>();
        let assembly_us = us32(forward_started.duration_since(picked));
        let mut row0 = 0usize;
        for job in batch {
            let queue_us = us32(picked.duration_since(job.enqueued));
            metrics::latency_us().record(job.enqueued.elapsed().as_secs_f64() * 1e6);
            metrics::stage_queue_us().record(queue_us as f64);
            metrics::stage_assembly_us().record(assembly_us as f64);
            metrics::stage_forward_us().record(forward_us as f64);
            out.push(ScoreReply {
                version: *version,
                probs: scored[row0 * 3..(row0 + job.rows) * 3].to_vec(),
                shard,
                batch_rows: rows.min(u32::MAX as usize) as u32,
                queue_us,
                assembly_us,
                forward_us,
                precision,
            });
            row0 += job.rows;
        }
        stats.in_flight.store(0, Ordering::Relaxed);
    }
}

/// One shard: its locked replica and live counters.
struct Shard {
    replica: Mutex<Box<dyn Scorer>>,
    /// Builds this shard's replicas (fixed precision) on reload.
    lower: Lower,
    /// Jobs admitted and not yet picked into a forward.
    depth: AtomicI64,
    stats: ShardStats,
    precision: Precision,
}

impl Shard {
    /// Takes the replica. A panic during a forward poisons the lock but
    /// cannot leave the replica half-updated (a forward only overwrites
    /// scratch buffers, and a swap is a single assignment), so the poison
    /// is cleared rather than propagated.
    fn lock(&self) -> MutexGuard<'_, Box<dyn Scorer>> {
        self.replica.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The scorer shards. Shared freely via `Arc`; runs no threads of its own.
pub struct ShardPool {
    shards: Vec<Shard>,
    rr: AtomicUsize,
    version: AtomicU64,
    input_dim: usize,
    cfg: BatchConfig,
    /// Serializes reloads so versions are assigned in order.
    reload_lock: Mutex<()>,
}

impl ShardPool {
    /// Builds one shard per entry of `precisions` (empty means one `f64`
    /// shard), each holding a [`SganInfer`] lowering of `model` at that
    /// shard's precision. `F64` shards are bit-exact with the model (and
    /// with each other); `F32` shards track it within the committed
    /// tolerance.
    pub fn new(model: Sgan, precisions: &[Precision], cfg: &BatchConfig) -> Arc<ShardPool> {
        metrics::register_all();
        let precisions: &[Precision] = if precisions.is_empty() {
            &[Precision::F64]
        } else {
            precisions
        };
        let shards = precisions
            .iter()
            .enumerate()
            .map(|(i, &precision)| {
                metrics::shard_precision(i).set(precision.bits() as f64);
                let lower: Lower = match precision {
                    Precision::F64 => Replica::<f64>::lower,
                    Precision::F32 => Replica::<f32>::lower,
                };
                Shard {
                    replica: Mutex::new(lower(&model, INITIAL_VERSION)),
                    lower,
                    depth: AtomicI64::new(0),
                    stats: ShardStats::default(),
                    precision,
                }
            })
            .collect();
        metrics::model_version().set(INITIAL_VERSION as f64);
        Arc::new(ShardPool {
            shards,
            rr: AtomicUsize::new(0),
            version: AtomicU64::new(INITIAL_VERSION),
            input_dim: model.input_dim(),
            cfg: cfg.clone(),
            reload_lock: Mutex::new(()),
        })
    }

    /// [`ShardPool::new`] with `shards` all-`f64` shards, in the shape of a
    /// thread-spawning constructor: the pool runs no threads, so the
    /// handle list is always empty and joining it is a no-op.
    pub fn spawn(
        model: Sgan,
        shards: usize,
        cfg: &BatchConfig,
    ) -> (Arc<ShardPool>, Vec<JoinHandle<()>>) {
        let precisions = vec![Precision::F64; shards.max(1)];
        (ShardPool::new(model, &precisions, cfg), Vec::new())
    }

    /// Input dimension every shard's model expects.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Number of scorer shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard serving precisions, in shard order (fixed at
    /// construction).
    pub fn precisions(&self) -> Vec<Precision> {
        self.shards.iter().map(|s| s.precision).collect()
    }

    /// Current model generation (1 at boot, +1 per successful reload).
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::SeqCst)
    }

    /// A relaxed snapshot of every shard's live counters, in shard order
    /// (the `GET /debug/queues` payload).
    pub fn shard_snapshots(&self) -> Vec<ShardSnapshot> {
        self.shards
            .iter()
            .map(|s| ShardSnapshot {
                depth: s.depth.load(Ordering::Relaxed),
                in_flight: s.stats.in_flight.load(Ordering::Relaxed),
                last_batch_rows: s.stats.last_batch_rows.load(Ordering::Relaxed),
                last_batch_version: s.stats.last_batch_version.load(Ordering::Relaxed),
                batches: s.stats.batches.load(Ordering::Relaxed),
                pool_hits: s.stats.pool_hits.load(Ordering::Relaxed),
                pool_misses: s.stats.pool_misses.load(Ordering::Relaxed),
                precision: s.precision,
            })
            .collect()
    }

    /// Admits one job to shard `shard`, or sheds it (counted in
    /// `serve_shed`) when the shard already holds `queue_capacity` admitted
    /// jobs that no forward has picked up yet.
    pub fn admit(&self, shard: usize) -> Result<(), SubmitError> {
        metrics::requests().add(1);
        let depth = &self.shards[shard].depth;
        if depth.fetch_add(1, Ordering::Relaxed) >= self.cfg.queue_capacity.max(1) as i64 {
            depth.fetch_sub(1, Ordering::Relaxed);
            metrics::shed().add(1);
            return Err(SubmitError::Overloaded);
        }
        metrics::queue_depth().add(1.0);
        Ok(())
    }

    /// Scores admitted `jobs` on shard `shard`, on the calling thread, in
    /// order: consecutive jobs share a forward while their rows fit in
    /// `max_batch` (a larger job runs alone). Pushes one reply per job onto
    /// `out`, in job order. The shard lock is taken per forward, so a
    /// reload swap lands between two forwards, never inside one. The jobs
    /// leave the shard's queue count when the first forward starts.
    pub fn score_jobs(&self, shard: usize, jobs: &[Job], out: &mut Vec<ScoreReply>) {
        let s = &self.shards[shard];
        let mut start = 0;
        while start < jobs.len() {
            let mut rows = jobs[start].rows;
            let mut end = start + 1;
            while end < jobs.len() && rows + jobs[end].rows <= self.cfg.max_batch {
                rows += jobs[end].rows;
                end += 1;
            }
            let batch = &jobs[start..end];
            let mut replica = s.lock();
            if start == 0 {
                // All of the call's jobs leave the queue together, before
                // any forward could panic and strand them in the count.
                s.depth.fetch_sub(jobs.len() as i64, Ordering::Relaxed);
                metrics::queue_depth().add(-(jobs.len() as f64));
            }
            replica.forward(shard as u32, batch, rows, &s.stats, out);
            start = end;
        }
    }

    /// Scores one job on the calling thread: admits it to the shard with
    /// the fewest admitted jobs (ties rotate, so equal load spreads), waits
    /// for that shard's lock, and runs one forward over its rows. Sheds
    /// when the chosen shard already holds `queue_capacity` jobs.
    pub fn score(&self, features: Vec<f64>, rows: usize) -> Result<ScoreReply, SubmitError> {
        let n = self.shards.len();
        let start = self.rr.fetch_add(1, Ordering::Relaxed) % n;
        let shard = (0..n)
            .map(|off| (start + off) % n)
            .min_by_key(|&i| self.shards[i].depth.load(Ordering::Relaxed))
            .expect("a pool has at least one shard");
        let job = Job {
            features,
            rows,
            enqueued: Instant::now(),
        };
        self.admit(shard)?;
        let mut out = Vec::with_capacity(1);
        self.score_jobs(shard, std::slice::from_ref(&job), &mut out);
        Ok(out.pop().expect("one reply per job"))
    }

    /// [`ShardPool::score`] with the reply delivered on a channel, for
    /// callers that consume replies as messages. The reply is already
    /// waiting when this returns.
    pub fn submit(
        &self,
        features: Vec<f64>,
        rows: usize,
    ) -> Result<mpsc::Receiver<ScoreReply>, SubmitError> {
        let reply = self.score(features, rows)?;
        let (tx, rx) = mpsc::channel();
        let _ = tx.send(reply);
        Ok(rx)
    }

    /// Loads, validates, and swaps a new checkpoint into every shard. File
    /// IO, decoding, and the per-shard lowering happen on the calling
    /// thread; each shard's lock is held only for the swap.
    ///
    /// All-or-nothing: any read/decode/validation failure returns the typed
    /// error *before* any shard has been touched, and the old model keeps
    /// serving. On success returns the new model generation.
    pub fn reload(&self, path: impl AsRef<Path>) -> Result<u64, ReloadError> {
        let _guard = self
            .reload_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        // Decode once, lower per shard: all same-precision shards get the
        // same bits, and the checkpoint format itself stays f64-only.
        let model = Sgan::load(path)?;
        if model.input_dim() != self.input_dim {
            return Err(ReloadError::DimMismatch {
                expected: self.input_dim,
                found: model.input_dim(),
            });
        }
        let new_version = self.version.load(Ordering::SeqCst) + 1;
        let replicas: Vec<Box<dyn Scorer>> = self
            .shards
            .iter()
            .map(|shard| (shard.lower)(&model, new_version))
            .collect();
        for (shard, replica) in self.shards.iter().zip(replicas) {
            // The old replica drops after the lock is released.
            let _old = std::mem::replace(&mut *shard.lock(), replica);
        }
        self.version.store(new_version, Ordering::SeqCst);
        metrics::model_version().set(new_version as f64);
        metrics::reloads().add(1);
        Ok(new_version)
    }
}

/// Model generation a freshly booted pool serves.
pub const INITIAL_VERSION: u64 = 1;

/// Clamps a duration to microseconds in a `u32` (saturating: a >71-minute
/// stage is pinned, not wrapped).
pub(crate) fn us32(d: Duration) -> u32 {
    d.as_micros().min(u32::MAX as u128) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use gale_core::SganConfig;
    use gale_tensor::{Matrix, Rng};

    fn tiny_model(dim: usize) -> Sgan {
        let mut rng = Rng::seed_from_u64(31);
        Sgan::new(
            dim,
            &SganConfig {
                d_hidden: vec![8, 4],
                g_hidden: vec![8],
                ..Default::default()
            },
            &mut rng,
        )
    }

    fn scratch_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("gale-batcher-tests-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn blocking_callers_beyond_capacity_shed_instead_of_waiting() {
        // One shard whose lock the test holds: the first caller is admitted
        // and waits for the lock; with a capacity of one, the next caller
        // must shed at once rather than queue behind it.
        let dim = 2;
        let cfg = BatchConfig {
            queue_capacity: 1,
            max_batch: 1,
        };
        let pool = ShardPool::new(tiny_model(dim), &[Precision::F64], &cfg);
        let guard = pool.shards[0].lock();
        let waiter = {
            let pool = pool.clone();
            std::thread::spawn(move || pool.score(vec![0.0, 0.0], 1))
        };
        while pool.shard_snapshots()[0].depth < 1 {
            std::thread::yield_now();
        }
        let shed_before = metrics::shed().get();
        assert_eq!(
            pool.score(vec![0.5, 0.5], 1).unwrap_err(),
            SubmitError::Overloaded
        );
        assert!(metrics::shed().get() > shed_before);
        drop(guard);
        // The admitted caller is still answered once the shard frees up.
        let reply = waiter.join().unwrap().expect("admitted job must be scored");
        assert_eq!(reply.probs.len(), 3);
        assert_eq!(pool.shard_snapshots()[0].depth, 0);
    }

    #[test]
    fn a_tick_scores_in_forwards_of_at_most_max_batch_rows() {
        // One tick's jobs, in arrival order: consecutive jobs share a
        // forward while their rows fit in `max_batch`; an oversized job runs
        // alone. Every row still scores bitwise like the in-process forward.
        let dim = 3;
        let cfg = BatchConfig {
            max_batch: 6,
            queue_capacity: 5,
        };
        let pool = ShardPool::new(tiny_model(dim), &[Precision::F64], &cfg);
        let mut reference = tiny_model(dim);
        let mut rng = Rng::seed_from_u64(33);
        let sizes = [3usize, 3, 3, 10, 1];
        let mut jobs = Vec::new();
        for &rows in &sizes {
            pool.admit(0).unwrap();
            jobs.push(Job {
                features: Matrix::randn(rows, dim, 1.0, &mut rng).data().to_vec(),
                rows,
                enqueued: Instant::now(),
            });
        }
        // The tick is full: a sixth job is shed.
        assert_eq!(pool.admit(0), Err(SubmitError::Overloaded));
        assert_eq!(pool.shard_snapshots()[0].depth, 5);
        let mut replies = Vec::new();
        pool.score_jobs(0, &jobs, &mut replies);
        assert_eq!(pool.shard_snapshots()[0].depth, 0);
        let batch_rows: Vec<u32> = replies.iter().map(|r| r.batch_rows).collect();
        assert_eq!(batch_rows, vec![6, 6, 3, 10, 1]);
        assert_eq!(pool.shard_snapshots()[0].batches, 4);
        for (job, reply) in jobs.iter().zip(&replies) {
            let mut expect = Matrix::zeros(0, 0);
            reference.probs3_into(
                &Matrix::from_vec(job.rows, dim, job.features.clone()),
                &mut expect,
            );
            assert_eq!(reply.probs.len(), job.rows * 3);
            for (a, b) in expect.data().iter().zip(&reply.probs) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn serving_sized_forwards_identical_across_thread_counts() {
        // Serving forwards sit below the GEMM grain and run on the calling
        // thread; the scores must not depend on the thread cap.
        use gale_tensor::par::with_threads;
        let dim = 8;
        let mut rng = Rng::seed_from_u64(35);
        for rows in [4usize, 64] {
            let x = Matrix::randn(rows, dim, 1.0, &mut rng);
            let run = |threads: usize| {
                with_threads(threads, || {
                    let pool = ShardPool::new(tiny_model(dim), &[], &BatchConfig::default());
                    let reply = pool.score(x.data().to_vec(), rows).unwrap();
                    reply
                        .probs
                        .iter()
                        .map(|p| p.to_bits())
                        .collect::<Vec<u64>>()
                })
            };
            let baseline = run(1);
            for threads in [1, 2, 8] {
                assert_eq!(run(threads), baseline, "{rows} rows, {threads} threads");
            }
        }
    }

    #[test]
    fn a_panic_under_the_shard_lock_does_not_wedge_the_shard() {
        let dim = 3;
        let pool = ShardPool::new(tiny_model(dim), &[], &BatchConfig::default());
        let poisoner = pool.clone();
        let _ = std::thread::spawn(move || {
            let _replica = poisoner.shards[0].lock();
            panic!("simulated failure while holding the shard");
        })
        .join();
        assert!(pool.shards[0].replica.is_poisoned());
        let reply = pool.score(vec![0.1, 0.2, 0.3], 1).unwrap();
        assert_eq!(reply.probs.len(), 3);
    }

    #[test]
    fn scored_rows_match_in_process_model_bitwise_across_shards() {
        let dim = 5;
        let cfg = BatchConfig::default();
        let pool = ShardPool::new(tiny_model(dim), &[Precision::F64; 3], &cfg);

        let mut rng = Rng::seed_from_u64(32);
        let x = Matrix::randn(7, dim, 1.0, &mut rng);
        // Submit the same rows enough times that every shard scores at
        // least once with high probability; all replies must be bitwise
        // equal to the in-process forward.
        let mut model = tiny_model(dim);
        let mut expect = Matrix::zeros(0, 0);
        model.probs3_into(&x, &mut expect);
        for _ in 0..12 {
            let reply = pool.submit(x.data().to_vec(), 7).unwrap();
            let served = reply.recv().unwrap();
            assert_eq!(served.version, INITIAL_VERSION);
            assert_eq!(served.probs.len(), 7 * 3);
            for (a, b) in expect.data().iter().zip(&served.probs) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn mixed_precision_pool_agrees_on_verdicts_and_stamps_precision() {
        // One f64 and one f32 shard behind the same pool: dispatch is
        // load-based, so the same request lands on either. Submitting one
        // fixed batch many times must exercise both shards; f64 replies
        // stay bitwise-exact, f32 replies must agree on every verdict and
        // track the probabilities within single-precision tolerance.
        let dim = 5;
        let pool = ShardPool::new(
            tiny_model(dim),
            &[Precision::F64, Precision::F32],
            &BatchConfig::default(),
        );
        assert_eq!(pool.precisions(), vec![Precision::F64, Precision::F32]);
        let snaps = pool.shard_snapshots();
        assert_eq!(snaps[0].precision, Precision::F64);
        assert_eq!(snaps[1].precision, Precision::F32);

        let mut rng = Rng::seed_from_u64(34);
        let x = Matrix::randn(6, dim, 1.0, &mut rng);
        let mut model = tiny_model(dim);
        let mut expect = Matrix::zeros(0, 0);
        model.probs3_into(&x, &mut expect);
        let (mut seen64, mut seen32) = (false, false);
        for _ in 0..24 {
            let served = pool.submit(x.data().to_vec(), 6).unwrap().recv().unwrap();
            assert_eq!(served.probs.len(), 6 * 3);
            match served.precision {
                Precision::F64 => {
                    seen64 = true;
                    for (a, b) in expect.data().iter().zip(&served.probs) {
                        assert_eq!(a.to_bits(), b.to_bits());
                    }
                }
                Precision::F32 => {
                    seen32 = true;
                    for r in 0..6 {
                        let want = expect[(r, 0)] > expect[(r, 1)];
                        let got = served.probs[r * 3] > served.probs[r * 3 + 1];
                        assert_eq!(want, got, "verdict flip on row {r}");
                        for c in 0..3 {
                            let diff = (expect[(r, c)] - served.probs[r * 3 + c]).abs();
                            assert!(diff < 1e-4, "row {r} class {c} diverged by {diff:e}");
                        }
                    }
                }
            }
        }
        assert!(
            seen64 && seen32,
            "both precisions must score (f64 {seen64}, f32 {seen32})"
        );
    }

    #[test]
    fn reload_lowers_the_checkpoint_into_each_shards_precision() {
        // A reload against a mixed pool must hand the f64 shard a
        // bit-exact replica and the f32 shard a lowering of the *new*
        // checkpoint — both at the bumped version.
        let dim = 4;
        let pool = ShardPool::new(
            tiny_model(dim),
            &[Precision::F64, Precision::F32],
            &BatchConfig::default(),
        );
        let mut rng = Rng::seed_from_u64(57);
        let mut next = Sgan::new(
            dim,
            &SganConfig {
                d_hidden: vec![6],
                g_hidden: vec![6],
                ..Default::default()
            },
            &mut rng,
        );
        let path = scratch_path("reload-mixed.ckpt");
        next.save(&path).unwrap();
        let v = pool.reload(&path).unwrap();
        assert_eq!(v, INITIAL_VERSION + 1);

        let x = Matrix::randn(5, dim, 1.0, &mut rng);
        let mut expect = Matrix::zeros(0, 0);
        next.probs3_into(&x, &mut expect);
        let (mut seen64, mut seen32) = (false, false);
        for _ in 0..24 {
            let got = pool.submit(x.data().to_vec(), 5).unwrap().recv().unwrap();
            assert_eq!(got.version, v);
            match got.precision {
                Precision::F64 => {
                    seen64 = true;
                    for (a, b) in expect.data().iter().zip(&got.probs) {
                        assert_eq!(a.to_bits(), b.to_bits());
                    }
                }
                Precision::F32 => {
                    seen32 = true;
                    for r in 0..5 {
                        assert_eq!(
                            expect[(r, 0)] > expect[(r, 1)],
                            got.probs[r * 3] > got.probs[r * 3 + 1],
                            "verdict flip on row {r} after reload"
                        );
                    }
                }
            }
        }
        assert!(seen64 && seen32, "both precisions must score after reload");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reload_swaps_every_shard_and_bumps_the_version() {
        let dim = 4;
        let pool = ShardPool::new(
            tiny_model(dim),
            &[Precision::F64; 2],
            &BatchConfig::default(),
        );
        let mut rng = Rng::seed_from_u64(55);
        let mut next = Sgan::new(
            dim,
            &SganConfig {
                d_hidden: vec![6],
                g_hidden: vec![6],
                ..Default::default()
            },
            &mut rng,
        );
        let path = scratch_path("reload-ok.ckpt");
        next.save(&path).unwrap();
        assert_eq!(pool.version(), INITIAL_VERSION);
        let v = pool.reload(&path).unwrap();
        assert_eq!(v, INITIAL_VERSION + 1);
        assert_eq!(pool.version(), v);

        // Every shard now scores with the new model, bitwise.
        let x = Matrix::randn(5, dim, 1.0, &mut rng);
        let mut expect = Matrix::zeros(0, 0);
        next.probs3_into(&x, &mut expect);
        for _ in 0..8 {
            let got = pool.submit(x.data().to_vec(), 5).unwrap().recv().unwrap();
            assert_eq!(got.version, v);
            for (a, b) in expect.data().iter().zip(&got.probs) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn failed_reload_leaves_the_old_model_serving() {
        let dim = 3;
        let pool = ShardPool::new(
            tiny_model(dim),
            &[Precision::F64; 2],
            &BatchConfig::default(),
        );
        let mut reference = tiny_model(dim);
        let x = Matrix::randn(4, dim, 1.0, &mut Rng::seed_from_u64(7));
        let mut expect = Matrix::zeros(0, 0);
        reference.probs3_into(&x, &mut expect);

        // Missing file -> typed Io error.
        match pool.reload("/definitely/not/a/checkpoint.ckpt") {
            Err(ReloadError::Ckpt(CkptError::Io { .. })) => {}
            other => panic!("expected an Io error, got {other:?}"),
        }
        // Dimension mismatch -> typed error, no swap.
        let mut rng = Rng::seed_from_u64(56);
        let wrong_dim = Sgan::new(
            dim + 2,
            &SganConfig {
                d_hidden: vec![4],
                g_hidden: vec![4],
                ..Default::default()
            },
            &mut rng,
        );
        let path = scratch_path("reload-wrongdim.ckpt");
        wrong_dim.save(&path).unwrap();
        match pool.reload(&path) {
            Err(ReloadError::DimMismatch { expected, found }) => {
                assert_eq!(expected, dim);
                assert_eq!(found, dim + 2);
            }
            other => panic!("expected DimMismatch, got {other:?}"),
        }
        assert_eq!(pool.version(), INITIAL_VERSION);
        let got = pool.submit(x.data().to_vec(), 4).unwrap().recv().unwrap();
        assert_eq!(got.version, INITIAL_VERSION);
        for (a, b) in expect.data().iter().zip(&got.probs) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let _ = std::fs::remove_file(&path);
    }
}
