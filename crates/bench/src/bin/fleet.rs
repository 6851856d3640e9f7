//! Fleet-scale population simulation: map a synthetic user population
//! (diurnal arrivals, context / battery / signal mix) over the worker
//! pool, one synthesized trace per worker at a time, and print the
//! exact aggregate — QoE and energy means and tails, energy-per-GB,
//! rebuffer and degradation rates, arrivals profile and per-class
//! slices.
//!
//! `--smoke` runs the CI configuration: 100 000 users with short
//! sessions, small enough to finish in seconds. The report deliberately
//! contains no timing, policy or host information, and the reduction is
//! exact, so CI runs the smoke twice (and once more under `--jobs 1`)
//! and byte-compares the outputs: same fleet, same bytes, whatever the
//! execution policy. `--cache-dir` serves each user's cell from, and
//! stores it into, the sweep result cache; a warm rerun prints the same
//! bytes.
//!
//! `--users`, `--seed` and `--duration` override the fleet shape;
//! `--json` / `--markdown` select the output format.

use ecas_bench::{Cli, Report, Table};
use ecas_core::fleet::{FleetEngine, FleetReport};
use ecas_core::trace::population::PopulationSpec;
use ecas_core::types::units::Seconds;

const DEFAULT_SEED: u64 = 8;
const SMOKE_USERS: u64 = 100_000;
const FULL_USERS: u64 = 1_000_000;
const SMOKE_DURATION_S: f64 = 24.0;
const FULL_DURATION_S: f64 = 120.0;

fn parse_u64(flag: &str, raw: &str) -> u64 {
    match raw.trim().parse() {
        Ok(value) => value,
        Err(_) => {
            eprintln!("fleet: invalid {flag} {raw:?} (expected a non-negative integer)");
            std::process::exit(2);
        }
    }
}

fn parse_duration(raw: &str) -> f64 {
    match raw.trim().parse::<f64>() {
        Ok(value) if value.is_finite() && value > 0.0 => value,
        _ => {
            eprintln!("fleet: invalid --duration {raw:?} (expected seconds > 0)");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args = Cli::new(
        "fleet",
        "fleet-scale population simulation with streaming aggregation",
    )
    .formats()
    .smoke()
    .grid()
    .option("--users", "n", "fleet size (default: 1000000, or 100000 with --smoke)")
    .option("--seed", "n", "fleet seed (default: 8)")
    .option(
        "--duration",
        "s",
        "mean session duration in seconds (default: 120, or 24 with --smoke)",
    )
    .parse();
    let smoke = args.smoke();

    let users = args.option("--users").map_or(
        if smoke { SMOKE_USERS } else { FULL_USERS },
        |v| parse_u64("--users", v),
    );
    let seed = args.option("--seed").map_or(DEFAULT_SEED, |v| parse_u64("--seed", v));
    let duration = args.option("--duration").map_or(
        if smoke { SMOKE_DURATION_S } else { FULL_DURATION_S },
        parse_duration,
    );
    let spec = PopulationSpec::new(users, seed).mean_duration(Seconds::new(duration));

    let engine = FleetEngine::paper();
    let policy = args.exec_policy();
    let fleet = engine.run(&spec, &policy);
    ecas_bench::report_cache_stats(&policy, &engine.stats());

    emit(&fleet, seed, duration, args.format());
}

fn emit(fleet: &FleetReport, seed: u64, duration: f64, format: ecas_bench::Format) {
    let mut headline = Table::new(vec!["metric", "value"]);
    for (metric, value) in [
        ("users", fleet.users.to_string()),
        ("segments", fleet.segments.to_string()),
        ("switches", fleet.switches.to_string()),
        ("mean QoE", format!("{:.4}", fleet.mean_qoe)),
        (
            "QoE p50/p90/p99",
            format!(
                "{:.2} / {:.2} / {:.2}",
                fleet.qoe_tail.p50, fleet.qoe_tail.p90, fleet.qoe_tail.p99
            ),
        ),
        ("mean energy (J)", format!("{:.2}", fleet.mean_energy_j)),
        (
            "energy p50/p90/p99 (J)",
            format!(
                "{:.0} / {:.0} / {:.0}",
                fleet.energy_tail.p50, fleet.energy_tail.p90, fleet.energy_tail.p99
            ),
        ),
        ("energy per GB (J)", format!("{:.1}", fleet.energy_per_gb_j)),
        ("rebuffer ratio", format!("{:.5}", fleet.rebuffer_ratio)),
        ("stalled share", format!("{:.5}", fleet.stalled_share)),
        ("degraded share", format!("{:.5}", fleet.degraded_share)),
        ("played (s)", format!("{:.0}", fleet.played_s)),
        ("downloaded (MB)", format!("{:.1}", fleet.downloaded_mb.value())),
    ] {
        headline.row(vec![metric.to_string(), value]);
    }

    let mut classes = Table::new(vec!["class", "share", "mean QoE", "mean energy (J)"]);
    for group in [&fleet.by_context, &fleet.by_battery, &fleet.by_signal] {
        for c in group {
            classes.row(vec![
                c.class.clone(),
                format!("{:.4}", c.share),
                format!("{:.4}", c.mean_qoe),
                format!("{:.2}", c.mean_energy_j),
            ]);
        }
    }

    let arrivals: Vec<String> = fleet.arrivals_by_hour.iter().map(u64::to_string).collect();
    let mut report = Report::new(format!("Fleet simulation (seed {seed})"));
    report.table("Fleet aggregate", headline);
    report.table("Population slices (context, battery, signal)", classes);
    report.note(format!("arrivals_by_hour {}", arrivals.join(",")));
    report.note(format!(
        "users={} seed={seed} mean_duration_s={duration:.0} stalled_sessions={}",
        fleet.users, fleet.stalled_sessions,
    ));
    report.emit(format);
}
