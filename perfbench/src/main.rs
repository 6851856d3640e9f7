//! Benchmark entry point: runs one workload and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fleet_stream|fleet_cache|corpus|pareto_optimal> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics, or with `--trace 1` the per-layer ones). The lines
//! before it print every metric with its unit. A traced run also writes
//! its spans to `perfbench/out/<workload>-seed<seed>.spans.tsv`.

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use ecas_perfbench::workloads::{self, Config, Metric, Sizes, Workload};

const USAGE: &str =
    "usage: ecas-perfbench --workload <name> [--seed <n>] [--seconds <n>] [--trace <0|1>]";

/// The seed a workload runs with when `--seed` is not given; the
/// held-out seeds are listed in `perfbench/README.md`.
const DEFAULT_SEED: u64 = 1;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds: f64 = 20.0;
    let mut trace = false;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!(
            "--seconds must be a non-negative number, not {seconds}"
        ));
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn json_metrics(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            // A non-finite value is not a JSON number; `correct` is false then.
            let value = if m.value.is_finite() {
                m.value.to_string()
            } else {
                "null".to_string()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let name = args.workload.name();
    let base = PathBuf::from("perfbench");
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds,
        sizes: Sizes::standard(),
        work_dir: base
            .join("work")
            .join(format!("{name}-{}", std::process::id())),
    };
    let outcome = workloads::run(args.workload, &cfg, args.trace);
    let _ = fs::remove_dir_all(&cfg.work_dir);
    let _ = fs::remove_dir(base.join("work"));
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(tracer) = &outcome.tracer {
        let out = base.join("out");
        let path = out.join(format!("{name}-seed{}.spans.tsv", args.seed));
        if let Err(e) = fs::create_dir_all(&out).and_then(|()| fs::write(&path, tracer.to_tsv())) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    let metrics = if args.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    for m in outcome.end_to_end.iter().chain(&outcome.per_layer) {
        println!("{name:<15} {:<30} {:>18.6} {}", m.name, m.value, m.unit);
    }
    let finite = metrics.iter().all(|m| m.value.is_finite());
    if !finite {
        eprintln!("error: a metric is not a finite number");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.failed == 0 && finite,
        outcome.attempted,
        outcome.failed,
        json_metrics(metrics)
    );
    ExitCode::SUCCESS
}
