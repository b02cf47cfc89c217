//! `--compare a.json b.json`: for every workload and end-to-end
//! metric, both values, the ratio `b / a` with `a` as its base, and a
//! verdict against the metric's bound.
//!
//! * `ok` — `b` is not worse than `a` by more than the bound;
//! * `worse` — it is;
//! * `unresolved` — the repetitions of either side spread wider than
//!   the bound, so a difference of that size cannot be told from noise.

use crate::json::Json;
use crate::spec::{Better, Clock, END_TO_END, WORKLOADS};
use std::process::ExitCode;

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn value(results: &Json, workload: &str, metric: &str) -> Option<f64> {
    results
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// (max − min) / value over one side's repetitions; 0 for exact metrics.
fn spread(results: &Json, workload: &str, metric: &str, value: f64) -> f64 {
    let range = results
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("ranges"))
        .and_then(|r| r.get(metric));
    match range {
        Some(Json::Arr(pair)) => match (
            pair.first().and_then(Json::as_f64),
            pair.get(1).and_then(Json::as_f64),
        ) {
            (Some(lo), Some(hi)) if value != 0.0 => (hi - lo) / value.abs(),
            _ => 0.0,
        },
        _ => 0.0,
    }
}

pub fn run(path_a: &str, path_b: &str) -> ExitCode {
    let (a, b) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    for (path, side) in [(path_a, &a), (path_b, &b)] {
        if side.get("comparable").and_then(Json::as_bool) != Some(true) {
            eprintln!("{path} was written by a --quick run and cannot be compared");
            return ExitCode::from(2);
        }
    }
    if a.get("seed") != b.get("seed") || a.get("seconds") != b.get("seconds") {
        eprintln!("the two runs differ in --seed or --seconds");
        return ExitCode::from(2);
    }
    println!(
        "{:<20} {:<22} {:>16} {:>16} {:>9}  verdict (base: {path_a})",
        "workload", "metric", "a", "b", "b/a"
    );
    let mut worse = 0;
    for w in WORKLOADS {
        for m in END_TO_END {
            let (Some(va), Some(vb)) = (value(&a, w.name, m.name), value(&b, w.name, m.name))
            else {
                println!("{:<20} {:<22} missing on one side", w.name, m.name);
                continue;
            };
            let ratio = if va != 0.0 { vb / va } else { f64::NAN };
            let worsening = match m.better {
                Better::Lower => ratio - 1.0,
                Better::Higher => 1.0 - ratio,
            };
            let noise = spread(&a, w.name, m.name, va).max(spread(&b, w.name, m.name, vb));
            let verdict = if m.clock == Clock::Host && noise > m.bound {
                format!("unresolved (repetitions spread {:.1} %)", noise * 100.0)
            } else if worsening > m.bound {
                worse += 1;
                format!("worse (bound {:.0} %)", m.bound * 100.0)
            } else {
                "ok".to_string()
            };
            println!(
                "{:<20} {:<22} {:>16.4} {:>16.4} {:>9.4}  {verdict}",
                w.name, m.name, va, vb, ratio
            );
        }
        let digest = |side: &Json| {
            side.get("workloads")
                .and_then(|x| x.get(w.name))
                .and_then(|x| x.get("rows_digest"))
                .cloned()
        };
        let same = digest(&a) == digest(&b);
        println!(
            "{:<20} rows_digest            {}",
            w.name,
            if same {
                "identical answers"
            } else {
                "ANSWERS DIFFER"
            }
        );
    }
    if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
