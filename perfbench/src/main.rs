//! The repository benchmark: one command, four workloads, every metric by
//! name with its unit, outputs checked on every run.
//!
//! ```text
//! perfbench --workload <paper-loop|scale-loop|serve-score|stream-mix>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the named workload untraced and prints its end-to-end
//! metrics. `--trace 1` is the separate traced run: it runs every workload
//! with telemetry on (`GALE_OBS` in process, `--trace-sample 1` on the
//! servers), prints the per-layer metrics as `<workload>.<crate>.<what>`,
//! and one attribution line per workload. The last line of standard output
//! is the JSON result. BENCHMARK.json (read from the working directory)
//! lists the metrics; the run fails if it would print a metric the file
//! does not declare, or omit one it does.
//!
//! BENCHMARK.json lists only the serving workloads: the loops' CPU time
//! moved by more than 40% between consecutive ten-seed sets on a shared
//! 2-vCPU VM, too far for any bound. The loop workloads still run in every
//! traced run, and on request for comparisons that alternate the two
//! versions run by run, which cancels the host's drift.

mod cpu;
mod loops;
mod openloop;
mod report;
mod serving;
mod stats;

use report::Report;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// The workloads, in the order the traced run visits them.
const WORKLOADS: [&str; 4] = ["paper-loop", "scale-loop", "serve-score", "stream-mix"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag `{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad --seconds `{value}`"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// `GALE_THREADS` of the end-to-end loop workers. On a 2-vCPU VM, two busy
/// threads make the loop's CPU time depend also on how the host schedules
/// the two vCPUs (most likely whether they share one core's two
/// hyperthreads): one paper-loop input read from about the CPU per loop run
/// of one thread to 40% more, changing over minutes. The traced run keeps
/// the default thread count, so the parallel runtime's own metrics describe
/// the shipped pool.
const LOOP_THREADS: &str = "1";

/// Runs a loop workload in a worker process of its own and reads back its
/// report (the last line of the worker's standard output). `threads` sets
/// the worker's `GALE_THREADS`; `None` keeps the default.
fn run_worker(
    kind: &str,
    seed: u64,
    seconds: f64,
    dir: &Path,
    threads: Option<&str>,
) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    let mut cmd = Command::new(exe);
    if let Some(t) = threads {
        cmd.env("GALE_THREADS", t);
    }
    let out = cmd
        .args(["worker", kind, &seed.to_string(), &seconds.to_string()])
        .arg(dir)
        .env("GALE_OBS_PATH", dir.join("telemetry.jsonl"))
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the {kind} worker: {e}"))?;
    if !out.status.success() {
        return Err(format!("{kind} worker exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text
        .lines()
        .last()
        .ok_or_else(|| format!("{kind} worker printed nothing"))?;
    let doc = gale_json::from_str(line).map_err(|e| format!("{kind} worker report: {e}"))?;
    Report::from_json(&doc)
}

/// Worker entry point: `worker <kind> <seed> <seconds> <dir>`.
fn worker(args: &[String]) -> Result<(), String> {
    let [kind, seed, seconds, dir] = args else {
        return Err("worker wants <kind> <seed> <seconds> <dir>".into());
    };
    let seed: u64 = seed.parse().map_err(|_| "worker seed")?;
    let seconds: f64 = seconds.parse().map_err(|_| "worker seconds")?;
    let dir = PathBuf::from(dir);
    // Telemetry is switched on only around the traced sections.
    gale_obs::set_enabled(false);
    let report = match kind.as_str() {
        "paper-loop" => loops::paper_loop(seed, seconds),
        "paper-loop-traced" => loops::paper_loop_traced(seed),
        "scale-loop" => loops::scale_loop(seed, seconds, &dir),
        "scale-loop-traced" => loops::scale_loop_traced(seed, &dir),
        other => return Err(format!("unknown worker kind `{other}`")),
    };
    println!("{}", report.to_json());
    Ok(())
}

fn run_workload(
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    dir: &Path,
) -> Result<Report, String> {
    let serve = || serving::ServeBinary::locate();
    match (name, trace) {
        ("paper-loop", false) => run_worker("paper-loop", seed, seconds, dir, Some(LOOP_THREADS)),
        ("paper-loop", true) => run_worker("paper-loop-traced", seed, seconds, dir, None),
        ("scale-loop", false) => run_worker("scale-loop", seed, seconds, dir, Some(LOOP_THREADS)),
        ("scale-loop", true) => run_worker("scale-loop-traced", seed, seconds, dir, None),
        ("serve-score", false) => serving::serve_score(&serve()?, seed, seconds, dir),
        ("serve-score", true) => serving::serve_score_traced(&serve()?, seed, seconds, dir),
        ("stream-mix", false) => serving::stream_mix(&serve()?, seed, seconds, dir),
        ("stream-mix", true) => serving::stream_mix_traced(&serve()?, seed, seconds, dir),
        _ => Err(format!("unknown workload `{name}`")),
    }
}

/// Declared `(name, unit)` pairs of one BENCHMARK.json metric list.
fn declared(list: &str) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("reading BENCHMARK.json: {e}"))?;
    let doc = gale_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let metrics = doc
        .get(list)
        .and_then(gale_json::Value::as_array)
        .ok_or_else(|| format!("BENCHMARK.json has no `{list}` list"))?;
    metrics
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(gale_json::Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("BENCHMARK.json `{list}` entry without `{k}`"))
            };
            Ok((field("name")?, field("unit")?))
        })
        .collect()
}

/// Fails unless the report carries exactly the declared metrics, each with
/// its declared unit.
fn check_declared(report: &Report, list: &str) -> Result<(), String> {
    let want = declared(list)?;
    for (name, _, unit) in &report.metrics {
        match want.iter().find(|(n, _)| n == name) {
            None => return Err(format!("metric `{name}` is not declared in `{list}`")),
            Some((_, u)) if u != unit => {
                return Err(format!("metric `{name}` has unit `{unit}`, declared `{u}`"))
            }
            Some(_) => {}
        }
    }
    let missing: Vec<&str> = want
        .iter()
        .filter(|(n, _)| !report.metrics.iter().any(|(m, _, _)| m == n))
        .map(|(n, _)| n.as_str())
        .collect();
    if missing.is_empty() {
        Ok(())
    } else {
        Err(format!("metrics not measured: {missing:?}"))
    }
}

/// The traced run: every workload, each given an equal share of the run's
/// seconds, its metrics prefixed with the workload's name.
fn traced(args: &Args, dir: &Path) -> Result<Report, String> {
    let share = args.seconds / WORKLOADS.len() as f64;
    let mut all = Report::default();
    for w in WORKLOADS {
        all.merge(
            run_workload(w, args.seed, share, true, &dir.join(w))?,
            &format!("{w}."),
        );
    }
    Ok(all)
}

fn run(args: &Args) -> Result<Report, String> {
    let dir =
        PathBuf::from(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    let result = if args.trace {
        traced(args, &dir)
    } else {
        run_workload(&args.workload, args.seed, args.seconds, false, &dir)
    };
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".bench_work");
    let report = result?;
    check_declared(
        &report,
        if args.trace {
            "per_layer"
        } else {
            "end_to_end"
        },
    )?;
    Ok(report)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("worker") {
        return match worker(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench worker: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let parsed = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&parsed) {
        Ok(report) => {
            for note in &report.notes {
                println!("{note}");
            }
            for reason in &report.invalid {
                eprintln!("perfbench: run invalid: {reason}");
            }
            println!("{}", report.result_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
