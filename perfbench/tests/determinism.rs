//! The traced run's work counters repeat exactly for one seed and move
//! when the seed changes; every metric it prints is declared in
//! `BENCHMARK.json`.

use std::fs;
use std::path::PathBuf;

use ecas_perfbench::workloads::{self, Config, Metric, Outcome, Sizes, Workload};

fn traced(workload: Workload, seed: u64) -> Outcome {
    let cfg = Config {
        seed,
        seconds: 0.0,
        sizes: Sizes::tiny(),
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("{}-{seed}", workload.name())),
    };
    let outcome = workloads::run(workload, &cfg, true).expect("workload runs");
    let _ = fs::remove_dir_all(&cfg.work_dir);
    assert_eq!(outcome.failed, 0, "{} checks pass", workload.name());
    outcome
}

/// Counters and byte counts: everything but times, shares and ratios
/// derived from them.
fn work_counts(outcome: &Outcome) -> Vec<(&'static str, f64)> {
    let timed = |m: &Metric| {
        m.unit == "s"
            || m.name.ends_with(".share")
            || m.name.starts_with("traced.")
            || m.name.ends_with("sess_s_per_s")
    };
    outcome
        .per_layer
        .iter()
        .filter(|m| !timed(m))
        .map(|m| (m.name, m.value))
        .collect()
}

#[test]
fn work_counts_repeat_for_a_seed_and_move_with_it() {
    for workload in Workload::ALL {
        let first = work_counts(&traced(workload, 7));
        let again = work_counts(&traced(workload, 7));
        let other = work_counts(&traced(workload, 8));
        assert_eq!(first, again, "{}: same seed, same counts", workload.name());
        assert_ne!(
            first,
            other,
            "{}: another seed changes the inputs",
            workload.name()
        );
        let used = [
            "trace.synth.samples",
            "sim.segments",
            "obs.stable_hash.bytes",
            "abr.labels_expanded",
        ];
        assert!(
            first
                .iter()
                .any(|(name, value)| used.contains(name) && *value > 0.0),
            "{}: counts some work",
            workload.name()
        );
    }
}

#[test]
fn printed_metrics_are_the_declared_ones() {
    let text = fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let outcome = traced(Workload::FleetStream, 7);
    for (section, metrics) in [
        ("end_to_end", &outcome.end_to_end),
        ("per_layer", &outcome.per_layer),
    ] {
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let declared = body.matches("\"name\"").count();
        assert_eq!(
            declared,
            metrics.len(),
            "{section}: one declaration per printed metric"
        );
        for m in metrics.iter() {
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
            assert!(body.contains(&entry), "{section} declares {entry}");
        }
    }
}
