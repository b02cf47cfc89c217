//! The GridVine benchmark.
//!
//! ```text
//! gridvine-benchmarks --workload <name> [--seed N] [--seconds N] [--trace 0|1] [--quick]
//! gridvine-benchmarks --all [--seed N] [--seconds N] [--quick]
//! gridvine-benchmarks --compare a.json b.json
//! gridvine-benchmarks --manifest
//! ```
//!
//! One invocation with `--workload` runs one workload in this process:
//! with `--trace 0` three untraced repetitions give the end-to-end
//! metrics; with `--trace 1` three untraced and three traced
//! repetitions, alternating, give the per-layer metrics, the tracing
//! overhead and the span file.
//! The last line of standard output is the result object. `--all` runs
//! every workload both ways, each in a child process, and writes
//! `out/results.json` for `--compare`. See `README.md`.

mod adapters;
mod compare;
mod json;
mod measure;
mod replay;
mod spec;
mod trace;
mod workloads;

use json::{obj, Json};
use measure::{median, quantile_sorted};
use spec::{Clock, Metric};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::Tracer;
use workloads::{Cx, Rep};

/// Repetitions behind every host-time median.
const REPS: usize = 3;
/// Op-count multiplier of `--quick`; its output is not comparable.
const QUICK_SCALE: f64 = 0.03;

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    compare: Option<(String, String)>,
    manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        all: false,
        seed: spec::DEFAULT_SEED,
        seconds: spec::RUN_SECONDS,
        trace: false,
        quick: false,
        compare: None,
        manifest: false,
    };
    let mut it = std::env::args().skip(1);
    let value = |it: &mut dyn Iterator<Item = String>, flag: &str| {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(value(&mut it, &flag)?),
            "--seed" => {
                args.seed = value(&mut it, &flag)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value(&mut it, &flag)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be between 1 and 60".to_string());
                }
            }
            "--trace" => {
                args.trace = match value(&mut it, &flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--all" => args.all = true,
            "--quick" => args.quick = true,
            "--manifest" => args.manifest = true,
            "--compare" => {
                args.compare = Some((value(&mut it, &flag)?, value(&mut it, &flag)?));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// One workload's aggregated result.
struct Outcome {
    /// Every metric of the requested list, by name.
    values: BTreeMap<&'static str, f64>,
    /// Smallest and largest repetition value of each host-time metric,
    /// so `--compare` can tell a difference from noise.
    ranges: BTreeMap<&'static str, (f64, f64)>,
    attempted: u64,
    failed: u64,
    digest: u64,
    errors: Vec<String>,
}

fn run_rep(name: &str, args: &Args, traced: bool) -> (Rep, Tracer) {
    let scale = if args.quick {
        QUICK_SCALE
    } else {
        args.seconds as f64 / spec::RUN_SECONDS as f64
    };
    let mut cx = Cx {
        seed: args.seed,
        scale,
        quick: args.quick,
        tr: Tracer::new(traced),
    };
    let rep = match name {
        "wan_lookup" => workloads::wan_lookup::run(&mut cx),
        "closure_search" => workloads::closure_search::run(&mut cx),
        "join_heavy" => workloads::join_heavy::run(&mut cx),
        "ingest_interleaved" => workloads::ingest_interleaved::run(&mut cx),
        "open_loop" => workloads::open_loop::run(&mut cx),
        other => unreachable!("{other} was checked against the workload table"),
    };
    (rep, cx.tr)
}

/// Run the repetitions of one workload and fold them into one value
/// per metric: host-time metrics take the median, simulated-time and
/// count metrics must agree exactly (a free determinism check).
fn run_workload(name: &str, args: &Args, metrics: &[Metric]) -> Outcome {
    let reps_wanted = if args.quick { 1 } else { REPS };
    let mut errors = Vec::new();

    // Each traced repetition follows an untraced one: the difference
    // in throughput between the two medians is the cost of tracing,
    // and alternating them spreads the host's slow spells over both.
    let mut baselines = Vec::new();
    let mut reps = Vec::new();
    let mut last_trace = None;
    for i in 0..reps_wanted {
        if args.trace {
            baselines.push(run_rep(name, args, false).0);
        }
        let (rep, tr) = run_rep(name, args, args.trace);
        eprintln!(
            "  rep {}/{reps_wanted}: setup {:.3} s, {:.1} op/s",
            i + 1,
            rep.get("setup_s").unwrap_or(0.0),
            rep.get("ops_per_s").unwrap_or(0.0)
        );
        reps.push(rep);
        last_trace = Some(tr);
    }
    if let (true, Some(tr)) = (args.trace, &last_trace) {
        let path = out_dir().join(format!("trace-{name}.jsonl"));
        match tr.write_jsonl(&path) {
            Ok(()) => eprintln!("  {} spans written to {}", tr.len(), path.display()),
            Err(e) => errors.push(format!("cannot write {}: {e}", path.display())),
        }
    }

    let mut values = BTreeMap::new();
    let mut ranges = BTreeMap::new();
    for m in metrics {
        let seen: Vec<f64> = reps
            .iter()
            .chain(&baselines)
            .filter_map(|r| r.get(m.name))
            .collect();
        let value = match (m.clock, seen.as_slice()) {
            (_, []) => 0.0,
            (Clock::Sim, [first, rest @ ..]) => {
                if rest.iter().any(|v| v.to_bits() != first.to_bits()) {
                    errors.push(format!("{} differs between repetitions: {seen:?}", m.name));
                }
                *first
            }
            (Clock::Host, _) => {
                // The untraced repetitions are not part of the traced
                // sample, unless only one of them could take the
                // measurement (memory growth of a fresh process).
                let mut own: Vec<f64> = reps.iter().filter_map(|r| r.get(m.name)).collect();
                if own.is_empty() {
                    own = seen;
                }
                let lo = own.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = own.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                ranges.insert(m.name, (lo, hi));
                median(&own)
            }
        };
        values.insert(m.name, value);
    }

    // Metrics the runner itself owns.
    if values.contains_key("peak_rss_mb") {
        values.insert("peak_rss_mb", measure::peak_rss_mb());
    }
    let mut pooled: Vec<u64> = reps
        .iter()
        .flat_map(|r| r.op_wall_ns.iter().copied())
        .collect();
    if values.contains_key("op_wall_p50_us") && !pooled.is_empty() {
        pooled.sort_unstable();
        values.insert(
            "op_wall_p50_us",
            quantile_sorted(&pooled, 0.50) as f64 / 1e3,
        );
        values.insert(
            "op_wall_p99_us",
            quantile_sorted(&pooled, 0.99) as f64 / 1e3,
        );
        eprintln!(
            "  op_wall percentiles over n = {} ops ({} beyond p99)",
            pooled.len(),
            pooled.len() / 100
        );
    }
    if !baselines.is_empty() {
        let rate = |reps: &[Rep]| {
            median(
                &reps
                    .iter()
                    .filter_map(|r| r.get("ops_per_s"))
                    .collect::<Vec<_>>(),
            )
        };
        let (untraced, traced) = (rate(&baselines), rate(&reps));
        let overhead = 1.0 - measure::ratio(traced, untraced);
        values.insert("trace.overhead_frac", overhead);
        eprintln!(
            "  tracing overhead on ops_per_s: {:.1} % ({untraced:.1} untraced, {traced:.1} traced)",
            overhead * 100.0
        );
    }

    let first = &reps[0];
    for r in reps.iter().chain(&baselines) {
        errors.extend(r.errors.iter().cloned());
        if r.digest != first.digest {
            errors.push("rows_digest differs between repetitions".to_string());
        }
    }
    for (name, v) in &mut values {
        if !v.is_finite() {
            errors.push(format!("{name} is not a finite number"));
            *v = 0.0;
        }
    }
    Outcome {
        values,
        ranges,
        attempted: reps.iter().map(|r| r.attempted).sum(),
        failed: reps.iter().map(|r| r.failed).sum(),
        digest: first.digest.0,
        errors,
    }
}

fn metrics_json(metrics: &[Metric], values: &BTreeMap<&'static str, f64>) -> Json {
    Json::Obj(
        metrics
            .iter()
            .filter_map(|m| {
                let v = *values.get(m.name)?;
                let entry = obj([("value", Json::Num(v)), ("unit", Json::Str(m.unit.into()))]);
                Some((m.name.to_string(), entry))
            })
            .collect(),
    )
}

/// Run one workload, print its metrics and the result line.
fn single(name: &str, args: &Args) -> ExitCode {
    let Some(w) = spec::workload(name) else {
        eprintln!("unknown workload {name}; one of:");
        for w in spec::WORKLOADS {
            eprintln!("  {}", w.name);
        }
        return ExitCode::from(2);
    };
    eprintln!(
        "{}: seed {}, {} s, trace {}{}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.quick {
            ", QUICK (not comparable)"
        } else {
            ""
        }
    );
    let metrics: &[Metric] = if args.trace {
        spec::PER_LAYER
    } else {
        spec::END_TO_END
    };
    let out = run_workload(w.name, args, metrics);
    println!(
        "workload {} seed {} comparable {}",
        w.name, args.seed, !args.quick
    );
    for m in metrics {
        let v = out.values.get(m.name).copied().unwrap_or(0.0);
        let clock = match m.clock {
            Clock::Host => "host",
            Clock::Sim => "sim",
        };
        println!("{:<40} {:>18.6} {:<9} {clock}", m.name, v, m.unit);
    }
    for (name, (lo, hi)) in &out.ranges {
        println!("range {name} {lo} {hi}");
    }
    println!("rows_digest {:016x}", out.digest);
    for e in &out.errors {
        println!("CHECK FAILED: {e}");
    }
    let correct = out.errors.is_empty();
    let result = obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(out.attempted.max(1) as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", metrics_json(metrics, &out.values)),
    ]);
    println!("{}", result.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run every workload, untraced then traced, each in a child process
/// of its own (so `peak_rss_mb` is the workload's), and write
/// `out/results.json`.
fn all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut workloads = BTreeMap::new();
    let mut ok = true;
    for w in spec::WORKLOADS {
        let mut entry = BTreeMap::new();
        for trace in ["0", "1"] {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--workload", w.name, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()]);
            if args.quick {
                cmd.arg("--quick");
            }
            // `output` waits for the child and collects its stdout.
            let output = match cmd.stderr(std::process::Stdio::inherit()).output() {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("cannot run {}: {e}", w.name);
                    return ExitCode::FAILURE;
                }
            };
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            ok &= output.status.success();
            let Some(result) = stdout.lines().last().and_then(|l| Json::parse(l).ok()) else {
                eprintln!("{}: no result line", w.name);
                ok = false;
                continue;
            };
            let key = if trace == "0" {
                "end_to_end"
            } else {
                "per_layer"
            };
            entry.insert(
                key.to_string(),
                result.get("metrics").cloned().unwrap_or(Json::Null),
            );
            if trace == "0" {
                let mut ranges = BTreeMap::new();
                for line in stdout.lines() {
                    let mut f = line.split_whitespace();
                    match (f.next(), f.next(), f.next(), f.next()) {
                        (Some("range"), Some(name), Some(lo), Some(hi)) => {
                            let pair = [lo, hi].map(|x| Json::Num(x.parse().unwrap_or(0.0)));
                            ranges.insert(name.to_string(), Json::Arr(pair.to_vec()));
                        }
                        (Some("rows_digest"), Some(d), ..) => {
                            entry.insert("rows_digest".to_string(), Json::Str(d.to_string()));
                        }
                        _ => {}
                    }
                }
                entry.insert("ranges".to_string(), Json::Obj(ranges));
                entry.insert(
                    "correct".to_string(),
                    result.get("correct").cloned().unwrap_or(Json::Bool(false)),
                );
            }
        }
        workloads.insert(w.name.to_string(), Json::Obj(entry));
    }
    let results = obj([
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds as f64)),
        ("comparable", Json::Bool(!args.quick)),
        ("workloads", Json::Obj(workloads)),
    ]);
    let path = out_dir().join("results.json");
    let written = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, results.render() + "\n"));
    match written {
        Ok(()) => eprintln!("results written to {}", path.display()),
        Err(e) => {
            eprintln!("cannot write {}: {e}", path.display());
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.manifest {
        print!("{}", spec::manifest());
        return ExitCode::SUCCESS;
    }
    if let Some((a, b)) = &args.compare {
        return compare::run(a, b);
    }
    if args.all {
        return all(&args);
    }
    match &args.workload {
        Some(name) => single(name, &args),
        None => {
            eprintln!("give --workload <name>, --all, --compare a.json b.json or --manifest");
            ExitCode::from(2)
        }
    }
}
