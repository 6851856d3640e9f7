//! Observed scenario runs: run manifests, JSONL event streams, metrics
//! summaries and per-segment timelines written next to the results.
//!
//! [`run_observed`] replays a [`Scenario`] like [`Scenario::run`] but
//! leaves a reproducibility trail in the output directory:
//!
//! ```text
//! out/
//!   manifest.json            # RunManifest: seeds, ladder, config hash
//!   metrics.txt              # counters, gauges, spans, histograms
//!   events/<trace>__<approach>.jsonl   # deterministic event streams
//!   timelines/<trace>__<approach>.txt  # per-segment timeline tables
//! ```
//!
//! Event files depend only on seeds and configuration, so a rerun of the
//! same scenario produces byte-identical JSONL and an equal manifest hash
//! — asserted by this crate's determinism tests.

use std::fs;
use std::io;
use std::path::Path;
use std::sync::Arc;

use ecas_obs::render::{metrics_summary, segment_timeline};
use ecas_obs::{stable_hash, MetricsRegistry, RunManifest, TraceRef};
use ecas_trace::videos::EvalTraceSpec;
use ecas_types::ladder::LevelIndex;

use crate::atomic::atomic_write;
use crate::metrics::{ComparisonSummary, TraceComparison};
use crate::report::{Scenario, TraceSelection};
use crate::runner::ExperimentRunner;
use crate::sweep::{CacheStats, ExecPolicy, SweepEngine};

/// Builds the [`RunManifest`] describing a scenario run under `runner`.
#[must_use]
pub fn manifest(scenario: &Scenario, runner: &ExperimentRunner) -> RunManifest {
    let ladder = runner.simulator().ladder();
    RunManifest {
        scenario: scenario.name.clone(),
        crate_version: env!("CARGO_PKG_VERSION").to_string(),
        eta: runner.eta(),
        ladder_mbps: (0..ladder.len())
            .map(|i| ladder.bitrate(LevelIndex::new(i)).value())
            .collect(),
        config_hash: format!("{:016x}", stable_hash(runner.simulator().config())),
        traces: trace_refs(&scenario.traces),
        approaches: scenario
            .approaches
            .iter()
            .map(|a| a.label().to_string())
            .collect(),
    }
}

/// The `(name, seed)` pairs a selection generates, without materializing
/// the traces.
fn trace_refs(selection: &TraceSelection) -> Vec<TraceRef> {
    let spec_ref = |s: &EvalTraceSpec| TraceRef {
        name: format!("trace{}", s.id),
        seed: s.seed,
    };
    match selection {
        TraceSelection::TableV => EvalTraceSpec::table_v().iter().map(spec_ref).collect(),
        TraceSelection::TableVSubset(ids) => {
            let specs = EvalTraceSpec::table_v();
            ids.iter()
                .map(|id| {
                    spec_ref(
                        specs
                            .iter()
                            .find(|s| s.id == *id)
                            // ecas-lint: allow(panic-safety, reason = "an unknown trace id is a caller bug in a fixed experiment spec; abort loudly")
                            .unwrap_or_else(|| panic!("no Table V trace with id {id}")),
                    )
                })
                .collect()
        }
        TraceSelection::Synthetic {
            context,
            count,
            base_seed,
            ..
        } => (0..*count)
            .map(|i| TraceRef {
                name: format!("{context}-{i}"),
                seed: base_seed + u64::from(i),
            })
            .collect(),
    }
}

/// `<trace>__<approach>` file stem for per-pair artifacts.
fn pair_stem(trace: &str, approach_label: &str) -> String {
    format!("{trace}__{}", approach_label.to_lowercase())
}

/// Runs a scenario with full instrumentation, writing the manifest, one
/// JSONL event file and one timeline table per `(trace, approach)` pair,
/// and an aggregate metrics summary into `dir`.
///
/// Returns the same [`ComparisonSummary`] as [`Scenario::run`] — built
/// from the instrumented runs themselves, so nothing executes twice.
///
/// # Errors
///
/// Returns the I/O error if any artifact cannot be written.
///
/// # Panics
///
/// Panics on the same invalid inputs as [`Scenario::run`].
pub fn run_observed(scenario: &Scenario, dir: &Path) -> io::Result<ComparisonSummary> {
    run_observed_with(scenario, dir, &scenario.policy()).map(|(summary, _)| summary)
}

/// [`run_observed`] under an explicit [`ExecPolicy`]: when the policy
/// caches, every `(trace, approach)` pair — including its event JSONL —
/// and every base-energy run is served from the cache on a warm rerun,
/// producing byte-identical event files without executing the simulator.
///
/// Only the policy's cache layer affects the observed pairs (each pair
/// streams into its own recorder, which is inherently sequential); the
/// wrapped policy still drives base-energy computation.
///
/// Returns the summary together with the run's [`CacheStats`]. On a warm
/// run the `sim/*` metrics stay at zero — the `sweep/cache_*` counters in
/// `metrics.txt` tell the story instead (see [`ecas_obs::names`]).
///
/// # Errors
///
/// Returns the I/O error if any artifact cannot be written.
///
/// # Panics
///
/// Panics on the same invalid inputs as [`Scenario::run`].
pub fn run_observed_with(
    scenario: &Scenario,
    dir: &Path,
    policy: &ExecPolicy,
) -> io::Result<(ComparisonSummary, CacheStats)> {
    let runner = scenario.runner();
    let events_dir = dir.join("events");
    let timelines_dir = dir.join("timelines");
    fs::create_dir_all(&events_dir)?;
    fs::create_dir_all(&timelines_dir)?;

    let manifest = manifest(scenario, &runner);
    atomic_write(
        &dir.join("manifest.json"),
        format!("{}\n", manifest.to_json_pretty()).as_bytes(),
    )?;

    let registry = Arc::new(MetricsRegistry::new());
    let engine = SweepEngine::new(runner).with_registry(Arc::clone(&registry));
    let cache_dir = policy.cache_dir();
    let base_policy = match cache_dir {
        Some(cache) => ExecPolicy::cached(cache, ExecPolicy::Sequential),
        None => ExecPolicy::Sequential,
    };

    let sessions = scenario.traces.sessions();
    let mut traces = Vec::with_capacity(sessions.len());
    for session in &sessions {
        let name = session.meta().name.clone();
        let mut results = Vec::with_capacity(scenario.approaches.len());
        for approach in &scenario.approaches {
            let stem = pair_stem(&name, approach.label());
            let (result, log) = engine.run_observed_pair(
                session,
                approach,
                cache_dir,
                &events_dir.join(format!("{stem}.jsonl")),
                &registry,
            )?;
            let values: Vec<_> = log
                .iter()
                // ecas-lint: allow(panic-safety, reason = "session events are plain enums; serialization cannot fail")
                .map(|e| serde_json::to_value(e).expect("session event serializes"))
                .collect();
            atomic_write(
                &timelines_dir.join(format!("{stem}.txt")),
                segment_timeline(&values).as_bytes(),
            )?;
            results.push(result);
        }
        traces.push(TraceComparison::from_results(
            name,
            engine.base_energy(session, &base_policy),
            &scenario.approaches,
            &results,
        ));
    }

    atomic_write(
        &dir.join("metrics.txt"),
        metrics_summary(&registry.snapshot()).as_bytes(),
    )?;
    Ok((ComparisonSummary { traces }, engine.stats()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approach::Approach;
    use ecas_trace::synth::context::Context;

    fn tiny_scenario() -> Scenario {
        Scenario::builder("observe-test")
            .traces(TraceSelection::Synthetic {
                context: Context::Walking,
                seconds: 30.0,
                count: 1,
                base_seed: 11,
            })
            .approaches(vec![Approach::Youtube, Approach::Ours])
            .build()
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ecas-observe-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Every artifact is published by rename; no `*.tmp` may survive.
    fn assert_no_temp_files(dir: &Path) {
        for sub in ["", "events", "timelines"] {
            for entry in fs::read_dir(dir.join(sub)).unwrap() {
                let name = entry.unwrap().file_name();
                let name = name.to_string_lossy();
                assert!(!name.ends_with(".tmp"), "leftover temp file {sub}/{name}");
            }
        }
    }

    #[test]
    fn manifest_covers_selection_and_config() {
        let scenario = Scenario::paper_evaluation();
        let runner = ExperimentRunner::paper();
        let m = manifest(&scenario, &runner);
        assert_eq!(m.traces.len(), 5);
        assert_eq!(m.traces[0].name, "trace1");
        assert_eq!(m.approaches.len(), scenario.approaches.len());
        assert_eq!(m.ladder_mbps.len(), runner.simulator().ladder().len());
        assert_eq!(m.config_hash.len(), 16);
    }

    #[test]
    fn observed_run_writes_all_artifacts_and_matches_plain_run() {
        let scenario = tiny_scenario();
        let dir = temp_dir("artifacts");
        let summary = run_observed(&scenario, &dir).unwrap();
        assert_eq!(summary.traces.len(), 1);
        // Matches the uninstrumented path.
        assert_eq!(summary, scenario.run());

        let manifest =
            RunManifest::from_json(&fs::read_to_string(dir.join("manifest.json")).unwrap())
                .unwrap();
        assert_eq!(manifest.scenario, "observe-test");

        let metrics = fs::read_to_string(dir.join("metrics.txt")).unwrap();
        assert!(metrics.contains("sim/segments"), "{metrics}");
        assert!(metrics.contains("sim/download"), "{metrics}");

        for approach in ["youtube", "ours"] {
            let stem = format!("walking-0__{approach}");
            let events =
                fs::read_to_string(dir.join("events").join(format!("{stem}.jsonl"))).unwrap();
            assert!(events.lines().count() > 15, "{stem} too short");
            assert!(events.lines().all(|l| l.starts_with('{')));
            let timeline =
                fs::read_to_string(dir.join("timelines").join(format!("{stem}.txt"))).unwrap();
            // 15 segments of a 30 s video + header + rule.
            assert_eq!(timeline.lines().count(), 17, "{timeline}");
        }
        assert_no_temp_files(&dir);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn observed_warm_cache_run_is_byte_identical() {
        let scenario = tiny_scenario();
        let cache = temp_dir("obs-cache");
        let cold_dir = temp_dir("obs-cold");
        let warm_dir = temp_dir("obs-warm");
        let policy = ExecPolicy::cached(&cache, ExecPolicy::Sequential);

        let (cold, cold_stats) = run_observed_with(&scenario, &cold_dir, &policy).unwrap();
        // Two observed pairs + one base-energy cell, all misses.
        assert_eq!(cold_stats.misses, 3);
        assert_eq!(cold_stats.hits, 0);

        let (warm, warm_stats) = run_observed_with(&scenario, &warm_dir, &policy).unwrap();
        assert_eq!(warm, cold);
        assert!(warm_stats.all_hits(), "{warm_stats:?}");
        assert_eq!(warm_stats.hits, 3);

        for approach in ["youtube", "ours"] {
            let stem = format!("walking-0__{approach}");
            for sub in ["events", "timelines"] {
                let ext = if sub == "events" { "jsonl" } else { "txt" };
                let name = format!("{stem}.{ext}");
                let a = fs::read(cold_dir.join(sub).join(&name)).unwrap();
                let b = fs::read(warm_dir.join(sub).join(&name)).unwrap();
                assert_eq!(a, b, "{sub}/{name} differs between cold and warm runs");
            }
        }
        // The warm run never executed the simulator; the cache counters
        // carry the story instead.
        let metrics = fs::read_to_string(warm_dir.join("metrics.txt")).unwrap();
        assert!(metrics.contains("sweep/cache_hit"), "{metrics}");
        // The warm run copied each event stream out of the cache.
        assert_no_temp_files(&cold_dir);
        assert_no_temp_files(&warm_dir);

        for d in [&cache, &cold_dir, &warm_dir] {
            fs::remove_dir_all(d).ok();
        }
    }
}
