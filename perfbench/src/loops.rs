//! The two offline workloads, run inside a worker process of their own so
//! that the process's peak RSS belongs to the workload alone.
//!
//! * `paper-loop`: the full Fig. 3 loop (`run_method(Method::Gale, ..)` at
//!   default `Knobs`) on Species analogues. One run makes one pass over
//!   `seconds / PAPER_RUN_S` scenarios derived from the seed, because the
//!   loop's work (early stopping, selection) depends on the data: one
//!   scenario per run would make the run-to-run spread a property of the
//!   seed.
//! * `scale-loop`: `run_gale_scale` over a `generate_scale` graph served
//!   from a memory-mapped `CsrStore`, with the `BENCH_scale` pipeline
//!   configuration.

use crate::cpu;
use crate::report::Report;
use crate::stats::{median, quantile};
use gale_bench::{
    gale_config, paper_budget, run_method, Knobs, Method, PreparedScenario, Scenario,
};
use gale_core::{g_augment, run_gale, GroundTruthOracle, ScaleGaleConfig, Sgan, SganConfig};
use gale_data::{generate_scale, DatasetId, ScaleSpec};
use gale_detect::DetectorLibrary;
use gale_graph::{soft_labels, CsrStore, PropagationConfig};
use gale_nn::{Gae, GaeConfig, MiniBatchConfig, NeighborSampler, SamplerConfig};
use gale_obs::metrics::MetricSnapshot;
use gale_tensor::{Matrix, Rng, SparseMatrix, SymNormalized};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Species analogue scale of every paper-loop scenario (1770 nodes).
const PAPER_SCALE: f64 = 0.1;
/// Seconds of one paper-loop run, roughly: a run measures one loop on
/// each of `seconds / PAPER_RUN_S` scenarios.
const PAPER_RUN_S: f64 = 2.5;
/// Set-up repetitions of the traced scale-loop run (medians of the
/// generate and open times).
const SETUP_REPS: usize = 5;
/// Nodes of the scale-loop graph: small enough for several runs per
/// measurement (the sampled GAE epochs, whose cost does not grow with the
/// graph, take most of a run).
const SCALE_NODES: usize = 10_000;
/// Undirected SBM edge draws per scale-loop node.
const SCALE_EDGES_PER_NODE: usize = 10;

/// A sub-seed: splitmix64 of `(seed, i)`, so scenarios of one run differ
/// and one seed always yields the same scenarios.
pub fn sub_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `f` `reps` times and returns the median wall time plus the last
/// result.
fn timed_median<T>(reps: usize, mut f: impl FnMut() -> T) -> (Duration, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        last = Some(f());
        times.push(t.elapsed().as_secs_f64());
    }
    let m = median(&times).expect("at least one repetition");
    (
        Duration::from_secs_f64(m),
        last.expect("at least one repetition"),
    )
}

/// Runs `f` once, appending the CPU time this process spent in it (s) to
/// `samples`.
fn cpu_timed<T>(samples: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let t = cpu::process();
    let out = f();
    samples.push(secs(cpu::process() - t));
    out
}

/// Counter values of the telemetry registry.
fn counters() -> BTreeMap<String, u64> {
    gale_obs::metrics::snapshot()
        .into_iter()
        .filter_map(|(name, snap)| match snap {
            MetricSnapshot::Counter(c) => Some((name, c)),
            _ => None,
        })
        .collect()
}

/// Counter deltas between two snapshots; missing counters read zero
/// because the registry creates a counter on its first increment.
struct Delta(BTreeMap<String, u64>, BTreeMap<String, u64>);

impl Delta {
    fn get(&self, name: &str) -> f64 {
        let after = self.1.get(name).copied().unwrap_or(0);
        let before = self.0.get(name).copied().unwrap_or(0);
        after.saturating_sub(before) as f64
    }

    fn ratio(&self, num: &str, den: f64) -> Option<f64> {
        (den > 0.0).then(|| self.get(num) / den)
    }
}

/// Runs `f` with telemetry on and returns its result and the counter
/// deltas it caused.
fn with_telemetry<T>(f: impl FnOnce() -> T) -> (T, Delta) {
    gale_obs::set_enabled(true);
    let before = counters();
    let out = f();
    let after = counters();
    gale_obs::set_enabled(false);
    (out, Delta(before, after))
}

/// The `tensor.*` layer metrics of one traced loop run.
fn tensor_metrics(r: &mut Report, d: &Delta, wall: Duration) {
    let threads = gale_tensor::par::max_threads() as f64;
    r.put(
        "tensor.gemm.gflop",
        Some(d.get("kernel.gemm.flops") / 1e9),
        "GFLOP",
    );
    r.put(
        "tensor.spmm.gflop",
        Some(d.get("kernel.spmm.flops") / 1e9),
        "GFLOP",
    );
    // Every distance kernel: the plain pairwise one, the blocked
    // norm-expansion one k-means uses, and the single-row sweep.
    let pairwise = [
        "kernel.pairwise.flops",
        "kernel.pairwise_sq.flops",
        "kernel.dist_row.flops",
    ];
    r.put(
        "tensor.pairwise.gflop",
        Some(pairwise.iter().map(|c| d.get(c)).sum::<f64>() / 1e9),
        "GFLOP",
    );
    r.put(
        "tensor.par.busy_share",
        d.ratio("par.busy_us", threads * wall.as_secs_f64() * 1e6),
        "ratio",
    );
    let ws = d.get("workspace.hits") + d.get("workspace.misses");
    r.put(
        "tensor.workspace.hit_ratio",
        d.ratio("workspace.hits", ws),
        "ratio",
    );
    let iters = d.get("kmeans.iters");
    r.put(
        "tensor.kmeans.pruned_per_iter",
        d.ratio("kmeans.pruned", iters),
        "count",
    );
    r.put("tensor.kmeans.iters", Some(iters), "count");
}

fn vm_hwm_mb() -> Option<f64> {
    let b = gale_obs::peak_rss_bytes();
    (b > 0).then(|| b as f64 / (1024.0 * 1024.0))
}

/// Checks that a repeated run of one input reproduced its first run.
fn check_repeat(
    r: &mut Report,
    seen: &mut BTreeMap<u64, (f64, usize)>,
    key: u64,
    f1: f64,
    queries: usize,
) {
    match seen.get(&key) {
        Some(&(f, q)) => r.check(f.to_bits() == f1.to_bits() && q == queries, || {
            format!("input {key:#x}: f1/queries {f1}/{queries} differ from first run {f}/{q}")
        }),
        None => {
            seen.insert(key, (f1, queries));
        }
    }
}

fn paper_scenarios(seed: u64, count: u64) -> Vec<Scenario> {
    (0..count)
        .map(|i| Scenario::table4(DatasetId::Species, PAPER_SCALE, sub_seed(seed, i)))
        .collect()
}

/// The end-to-end paper-loop run.
pub fn paper_loop(seed: u64, seconds: f64) -> Report {
    let mut r = Report::default();
    // The loop's work (early stopping, selection) depends on the data, so
    // each run averages over many scenarios: the mean over one pass is a
    // property of the scenario distribution, not of one draw.
    let count = ((seconds / PAPER_RUN_S).round() as u64).max(1);
    let scenarios = paper_scenarios(seed, count);
    let prepare = || scenarios.iter().map(Scenario::prepare).collect::<Vec<_>>();
    let mut setup_s = Vec::new();
    let preps = cpu_timed(&mut setup_s, prepare);
    let knobs = Knobs::default();
    let mut seen = BTreeMap::new();

    // Warm-up: thread pool, workspaces and allocator reach steady state.
    let warm = run_method(Method::Gale, &preps[0], &knobs);
    check_repeat(&mut r, &mut seen, 0, warm.f1, warm.queries);

    let (mut cpu_s, mut run_s) = (Vec::new(), Vec::new());
    for (k, prep) in preps.iter().enumerate() {
        // The set-up is repeated before every run, so that its median
        // samples the whole run, not one moment of a shared host.
        drop(cpu_timed(&mut setup_s, prepare));
        let t = cpu::process();
        let e = run_method(Method::Gale, prep, &knobs);
        cpu_s.push(secs(cpu::process() - t));
        r.check(e.queries > 0, || format!("scenario {k} issued no queries"));
        check_repeat(&mut r, &mut seen, k as u64, e.f1, e.queries);
        run_s.push(e.seconds);
    }
    r.put("setup_s", median(&setup_s), "s");
    r.put("cpu_us_per_op", mean(&cpu_s).map(|s| s * 1e6), "us");
    r.put("peak_rss_mb", vm_hwm_mb(), "MB");
    r.notes.push(wall_note("paper-loop", &run_s));
    r
}

fn mean(xs: &[f64]) -> Option<f64> {
    (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64)
}

/// The wall-clock figures of a loop run, printed for reading: they move
/// with how busy the host is, so no bound applies to them.
fn wall_note(workload: &str, run_s: &[f64]) -> String {
    format!(
        "{workload} wall time per loop run: p50 {:.3} s, p75 {:.3} s over {} runs",
        median(run_s).unwrap_or(f64::NAN),
        quantile(run_s, 0.75).unwrap_or(f64::NAN),
        run_s.len()
    )
}

/// The traced paper-loop run: one scenario, one untraced and one traced
/// loop, and the layer probes.
pub fn paper_loop_traced(seed: u64) -> Report {
    let mut r = Report::default();
    let scenario = &paper_scenarios(seed, 1)[0];
    let (prepare, prep): (Duration, PreparedScenario) = timed_median(3, || scenario.prepare());
    r.put("data.prepare_ms", Some(ms(prepare)), "ms");
    let knobs = Knobs::default();
    let _warm = run_method(Method::Gale, &prep, &knobs);
    let untraced = run_method(Method::Gale, &prep, &knobs);

    // The same loop through `run_gale`, configured exactly as `run_method`
    // configures it, so the outcome's per-iteration history is visible.
    let (total, k) = paper_budget(scenario.dataset, scenario.scale);
    let cfg = gale_config(Method::Gale, &knobs, total, k, scenario.seed ^ 0xbeef);
    let ((outcome, wall), d) = with_telemetry(|| {
        let mut oracle = GroundTruthOracle::new(&prep.data.truth);
        let t = Instant::now();
        let out = run_gale(
            &prep.data.graph,
            &prep.data.constraints,
            &prep.split,
            &prep.initial_examples(0.1),
            &prep.val_examples,
            &mut oracle,
            &cfg,
        );
        (out, t.elapsed())
    });
    let traced_f1 = prep.evaluate_gale(&outcome).f1;
    r.check(
        traced_f1.to_bits() == untraced.f1.to_bits() && outcome.queries_issued == untraced.queries,
        || {
            format!(
                "traced loop diverged: f1/queries {traced_f1}/{} vs {}/{}",
                outcome.queries_issued, untraced.f1, untraced.queries
            )
        },
    );
    r.put("core.f1", Some(traced_f1), "ratio");
    r.put("core.run_s", Some(untraced.seconds), "s");
    tensor_metrics(&mut r, &d, wall);
    let per_iter = |f: fn(&gale_core::IterationRecord) -> Duration| -> Vec<f64> {
        outcome.history.iter().map(|h| ms(f(h))).collect()
    };
    r.put("core.select_ms", median(&per_iter(|h| h.select_time)), "ms");
    r.put(
        "core.annotate_ms",
        median(&per_iter(|h| h.annotate_time)),
        "ms",
    );
    r.put("core.train_ms", median(&per_iter(|h| h.train_time)), "ms");
    let phases: Duration = outcome
        .history
        .iter()
        .map(|h| h.select_time + h.annotate_time + h.train_time)
        .sum();
    r.put(
        "core.unattributed_share",
        Some(1.0 - secs(phases) / secs(wall)),
        "ratio",
    );
    // Counts, not a hit ratio: the ratio is undefined when the loop makes
    // no lookups at all.
    r.put("core.memo.lookups", Some(d.get("memo.lookups")), "count");
    r.put("core.memo.hits", Some(d.get("memo.hits")), "count");
    r.put(
        "obs.overhead_ratio",
        Some(secs(wall) / untraced.seconds),
        "ratio",
    );

    // Layer probes on the same scenario, timed from outside.
    let lib = DetectorLibrary::standard(prep.data.constraints.clone());
    let (library, _) = timed_median(3, || lib.run(&prep.data.graph));
    r.put("detect.library_ms", Some(ms(library)), "ms");
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let (augment, aug) = timed_median(1, || {
        g_augment(
            &prep.data.graph,
            &prep.data.constraints,
            &cfg.augment,
            &mut rng,
        )
    });
    r.put("data.augment_ms", Some(ms(augment)), "ms");
    let n = prep.data.graph.node_count();
    let initial = prep.initial_examples(0.1);
    let mut y0 = Matrix::zeros(n, 2);
    for e in &initial {
        y0[(e.node, e.label.class_index())] = 1.0;
    }
    let (soft, _) = timed_median(5, || soft_labels(&aug.repr.s_norm, &y0, &cfg.propagation));
    r.put("graph.soft_labels_ms", Some(ms(soft)), "ms");
    let targets = gale_core::ExamplePool::targets(&initial);
    let val = gale_core::ExamplePool::targets(&prep.val_examples);
    let (sgan_train, _) = timed_median(1, || {
        let mut sgan = Sgan::new(aug.repr.x.cols(), &cfg.sgan, &mut rng);
        sgan.train(&aug.repr.x, &aug.x_s, &targets, &val, &mut rng)
    });
    r.put("nn.sgan_train_ms", Some(ms(sgan_train)), "ms");

    let covered = library + augment + phases;
    r.notes.push(format!(
        "attribution paper-loop: measured layers cover {:.1}% of one loop run \
         ({:.0} ms: detectors {:.0} ms, augment {:.0} ms, select+annotate+train {:.0} ms)",
        100.0 * secs(covered) / secs(wall),
        ms(wall),
        ms(library),
        ms(augment),
        ms(phases),
    ));
    r
}

/// The out-of-core loop configuration: `BENCH_scale`'s pipeline legs.
fn scale_cfg(seed: u64) -> ScaleGaleConfig {
    ScaleGaleConfig {
        gae: scale_gae(3),
        minibatch: scale_minibatch(seed),
        sgan: SganConfig {
            d_hidden: vec![24, 12],
            g_hidden: vec![24],
            epochs: 40,
            incremental_epochs: 8,
            batch_unsup: 256,
            early_stop_patience: 0,
            ..Default::default()
        },
        local_budget: 16,
        iterations: 3,
        candidate_pool: 4096,
        eval_chunk: 8192,
        synthetic_rows: 2048,
        propagation: PropagationConfig {
            iterations: 10,
            ..Default::default()
        },
        seed,
        ..Default::default()
    }
}

fn scale_gae(epochs: usize) -> GaeConfig {
    GaeConfig {
        hidden_dim: 32,
        embed_dim: 16,
        epochs,
        ..Default::default()
    }
}

fn scale_minibatch(seed: u64) -> MiniBatchConfig {
    MiniBatchConfig {
        fanouts: vec![10, 10],
        edge_batch: 512,
        batches_per_epoch: 16,
        seed,
    }
}

struct ScaleInput {
    store: CsrStore,
    features: Matrix,
    truth: Vec<bool>,
}

/// Generates the scale graph into `dir` and opens its store.
fn scale_setup(seed: u64, dir: &Path) -> (Duration, Duration, ScaleInput) {
    let spec = ScaleSpec::sized(SCALE_NODES, SCALE_NODES * SCALE_EDGES_PER_NODE, seed);
    let t = Instant::now();
    let g = generate_scale(&spec, dir).expect("generating the scale graph");
    let generate = t.elapsed();
    let t = Instant::now();
    let store = CsrStore::open(&g.adjacency_path).expect("opening the generated store");
    let open = t.elapsed();
    (
        generate,
        open,
        ScaleInput {
            store,
            features: g.features,
            truth: g.truth,
        },
    )
}

/// Set-up repeated [`SETUP_REPS`] times in fresh directories; returns the
/// median generate and open times and the last input.
fn scale_setups(seed: u64, dir: &Path) -> (Duration, Duration, ScaleInput) {
    let (mut gen, mut open) = (Vec::new(), Vec::new());
    let mut last = None;
    for rep in 0..SETUP_REPS {
        let sub = dir.join(format!("scale-{rep}"));
        drop(last.take());
        let (g, o, input) = scale_setup(seed, &sub);
        gen.push(secs(g));
        open.push(secs(o));
        last = Some(input);
        if rep > 0 {
            let _ = std::fs::remove_dir_all(dir.join(format!("scale-{}", rep - 1)));
        }
    }
    let d = |xs: &[f64]| Duration::from_secs_f64(median(xs).expect("repetitions"));
    (d(&gen), d(&open), last.expect("repetitions"))
}

/// The end-to-end scale-loop run.
pub fn scale_loop(seed: u64, seconds: f64, dir: &Path) -> Report {
    let mut r = Report::default();
    let mut setup_s = Vec::new();
    let (_, _, input) = cpu_timed(&mut setup_s, || scale_setup(seed, &dir.join("scale")));
    let cfg = scale_cfg(seed);
    let run = || gale_core::run_gale_scale(&input.store, &input.features, &input.truth, &cfg);
    let mut seen = BTreeMap::new();
    let warm = run();
    check_repeat(
        &mut r,
        &mut seen,
        0,
        warm.prf_against(&input.truth).f1,
        warm.queries_issued,
    );
    drop(warm);
    let started = Instant::now();
    let (mut cpu_s, mut run_s) = (Vec::new(), Vec::new());
    while run_s.is_empty() || started.elapsed().as_secs_f64() < seconds {
        // The set-up is repeated before every run (into a directory of its
        // own), so that its median samples the whole run.
        let rep = dir.join(format!("scale-{}", run_s.len()));
        drop(cpu_timed(&mut setup_s, || scale_setup(seed, &rep)));
        let _ = std::fs::remove_dir_all(&rep);
        let (c, t) = (cpu::process(), Instant::now());
        let out = run();
        run_s.push(secs(t.elapsed()));
        cpu_s.push(secs(cpu::process() - c));
        r.check(out.queries_issued > 0, || {
            "scale loop issued no queries".into()
        });
        check_repeat(
            &mut r,
            &mut seen,
            0,
            out.prf_against(&input.truth).f1,
            out.queries_issued,
        );
    }
    r.put("setup_s", median(&setup_s), "s");
    r.put("cpu_us_per_op", median(&cpu_s).map(|s| s * 1e6), "us");
    r.put("peak_rss_mb", vm_hwm_mb(), "MB");
    r.notes.push(wall_note("scale-loop", &run_s));
    r
}

/// The traced scale-loop run.
pub fn scale_loop_traced(seed: u64, dir: &Path) -> Report {
    let mut r = Report::default();
    let (generate, open, input) = scale_setups(seed, dir);
    r.put("data.generate_scale_ms", Some(ms(generate)), "ms");
    r.put("graph.store.open_ms", Some(ms(open)), "ms");
    let cfg = scale_cfg(seed);
    let run = || gale_core::run_gale_scale(&input.store, &input.features, &input.truth, &cfg);
    let _warm = run();
    let t = Instant::now();
    let untraced = run();
    let untraced_wall = t.elapsed();
    let ((out, wall), d) = with_telemetry(|| {
        let t = Instant::now();
        let out = run();
        (out, t.elapsed())
    });
    let (f_u, f_t) = (
        untraced.prf_against(&input.truth).f1,
        out.prf_against(&input.truth).f1,
    );
    r.check(f_u.to_bits() == f_t.to_bits(), || {
        format!("traced scale loop diverged: f1 {f_t} vs {f_u}")
    });
    r.put("core.f1", Some(f_t), "ratio");
    r.put("core.run_s", Some(secs(untraced_wall)), "s");
    tensor_metrics(&mut r, &d, wall);
    r.put("core.scale.select_s", Some(secs(out.select_time)), "s");
    r.put("core.scale.train_s", Some(secs(out.train_time)), "s");
    let phases = out.select_time + out.annotate_time + out.train_time;
    r.put(
        "core.unattributed_share",
        Some(1.0 - secs(phases) / secs(wall)),
        "ratio",
    );
    r.put(
        "obs.overhead_ratio",
        Some(secs(wall) / secs(untraced_wall)),
        "ratio",
    );

    // GAE epochs on this graph: the full-batch path over an in-memory copy
    // and the sampled path over the mapped store.
    let epochs = 2;
    let s = SymNormalized::new(&input.store);
    let t = Instant::now();
    let _ = Gae::train_sampled(
        &input.features,
        &input.store,
        &s,
        &scale_gae(epochs),
        &scale_minibatch(seed),
        &mut Rng::seed_from_u64(seed),
    );
    r.put(
        "nn.gae_epoch_ms.sampled",
        Some(ms(t.elapsed()) / epochs as f64),
        "ms",
    );
    let a = sparse_from_store(&input.store);
    let s_norm = Arc::new(a.sym_normalized_with_self_loops());
    let t = Instant::now();
    let _ = Gae::train(
        &input.features,
        &a,
        s_norm,
        &scale_gae(epochs),
        &mut Rng::seed_from_u64(seed),
    );
    r.put(
        "nn.gae_epoch_ms.full",
        Some(ms(t.elapsed()) / epochs as f64),
        "ms",
    );

    // Block expansion: input-frontier nodes per seed of a sampled batch.
    let mb = scale_minibatch(seed);
    let mut sampler = NeighborSampler::new(SamplerConfig {
        fanouts: mb.fanouts.clone(),
        seed,
    });
    let mut rng = Rng::seed_from_u64(seed);
    let mut ratios = Vec::new();
    for batch in 0..mb.batches_per_epoch {
        let mut seeds = rng.sample_indices(SCALE_NODES, 2 * mb.edge_batch);
        seeds.sort_unstable();
        seeds.dedup();
        let block = sampler.sample(&s, &seeds, 0, batch);
        ratios.push(block.inputs().len() as f64 / block.seeds().len() as f64);
    }
    r.put("nn.sampler.nodes_per_seed", median(&ratios), "ratio");
    r.notes.push(format!(
        "attribution scale-loop: measured layers cover {:.1}% of one loop run \
         ({:.0} ms: train {:.0} ms, select {:.0} ms, annotate {:.0} ms)",
        100.0 * secs(phases) / secs(wall),
        ms(wall),
        ms(out.train_time),
        ms(out.select_time),
        ms(out.annotate_time),
    ));
    r
}

/// Materializes a mapped store as an in-memory matrix (the input of the
/// full-batch GAE path).
fn sparse_from_store(store: &CsrStore) -> SparseMatrix {
    let mut triplets = Vec::with_capacity(store.nnz());
    for row in 0..store.rows() {
        let (cols, vals) = store.row(row);
        for (c, v) in cols.iter().zip(vals) {
            triplets.push((row, *c as usize, *v));
        }
    }
    SparseMatrix::from_triplets(store.rows(), store.cols(), triplets)
}
