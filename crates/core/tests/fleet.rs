//! Fleet-engine guarantees through the public API: same-seed runs are
//! byte-identical; the aggregate is the same for every `--jobs` width
//! (cached or not) and every batch split; metrics flow into an attached
//! registry; and sharded reducers merge into exactly the streaming
//! single pass.

#![allow(clippy::float_cmp)] // exact equality is the property under test

use std::path::PathBuf;
use std::sync::Arc;

use ecas_core::fleet::{FleetEngine, FleetReducer};
use ecas_core::obs::{names, MetricsRegistry};
use ecas_core::sim::result::SessionResult;
use ecas_core::trace::population::{PopulationSpec, UserSpec};
use ecas_core::types::units::Seconds;
use ecas_core::{Approach, ExecPolicy, ExperimentRunner};

fn spec(users: u64) -> PopulationSpec {
    PopulationSpec::new(users, 0xF1EE7).mean_duration(Seconds::new(20.0))
}

/// Every user of `spec`, synthesized and run one by one.
fn run_cells(spec: &PopulationSpec) -> Vec<(UserSpec, SessionResult)> {
    let runner = ExperimentRunner::paper();
    (0..spec.users())
        .map(|i| {
            let user = spec.user(i);
            let result = runner.run(&user.synthesize(), &Approach::Ours);
            (user, result)
        })
        .collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ecas-fleet-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn same_seed_fleet_runs_are_byte_identical() {
    let spec = spec(16);
    let a = FleetEngine::paper().run(&spec, &ExecPolicy::parallel());
    let b = FleetEngine::paper().run(&spec, &ExecPolicy::parallel());
    assert_eq!(a, b);
    assert_eq!(a.render(), b.render());
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap()
    );
}

/// Policy: `jobs` 1 to 4, cached and uncached. Batch size: users folded
/// in contiguous batches, one reducer per batch, merged.
#[test]
fn aggregate_is_independent_of_policy_and_batch_size() {
    let spec = spec(14);
    let reference = FleetEngine::paper().run(&spec, &ExecPolicy::Sequential);
    let reference_json = serde_json::to_string(&reference).unwrap();
    let dir = temp_dir("jobs");
    for jobs in [1, 2, 3, 4] {
        let inner = ExecPolicy::from_options(Some(jobs), None);
        for policy in [inner.clone(), ExecPolicy::cached(&dir, inner)] {
            let engine = FleetEngine::paper();
            let report = engine.run(&spec, &policy);
            assert_eq!(report, reference, "{policy:?}");
            assert_eq!(
                serde_json::to_string(&report).unwrap(),
                reference_json,
                "{policy:?} must match sequential byte-for-byte"
            );
            if policy.cache_dir().is_some() {
                let stats = engine.stats();
                assert_eq!(stats.lookups(), 14, "one lookup per user: {stats:?}");
                // The first cached run fills the directory; every later
                // width is served from it.
                assert!(jobs == 1 || stats.all_hits(), "jobs={jobs}: {stats:?}");
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();

    let cells = run_cells(&spec);
    for batch in [1, 4, 14] {
        let mut fleet = FleetReducer::new();
        for chunk in cells.chunks(batch) {
            let mut reducer = FleetReducer::new();
            for (u, r) in chunk {
                reducer.absorb(u, r);
            }
            fleet.merge(&reducer);
        }
        assert_eq!(fleet.finalize(), reference, "batch={batch}");
    }
}

#[test]
fn different_seeds_give_different_fleets() {
    let a = FleetEngine::paper().run(&PopulationSpec::new(12, 1).mean_duration(Seconds::new(20.0)), &ExecPolicy::Sequential);
    let b = FleetEngine::paper().run(&PopulationSpec::new(12, 2).mean_duration(Seconds::new(20.0)), &ExecPolicy::Sequential);
    assert_ne!(a.render(), b.render(), "seed must drive the population");
}

#[test]
fn registry_sees_fleet_progress() {
    let registry = Arc::new(MetricsRegistry::new());
    let report = FleetEngine::paper()
        .with_registry(Arc::clone(&registry))
        .run(&spec(9), &ExecPolicy::Parallel { jobs: 2 });
    assert_eq!(report.users, 9);
    let snapshot = registry.snapshot();
    assert_eq!(snapshot.counter(names::FLEET_USERS), Some(9));
    assert!(snapshot.span(names::FLEET_EXECUTE_SPAN).is_some());
}

#[test]
fn sharded_reduction_matches_streaming_pass() {
    let spec = spec(8);
    let cells = run_cells(&spec);

    let mut streaming = FleetReducer::new();
    for (u, r) in &cells {
        streaming.absorb(u, r);
    }
    // Three shards over interleaved users, merged out of construction
    // order.
    let mut shards = [FleetReducer::new(), FleetReducer::new(), FleetReducer::new()];
    for (i, (u, r)) in cells.iter().enumerate() {
        shards[i % 3].absorb(u, r);
    }
    let [mut merged, mid, last] = shards;
    merged.merge(&last);
    merged.merge(&mid);

    assert_eq!(merged.finalize(), streaming.finalize());
    assert_eq!(
        merged.finalize(),
        FleetEngine::paper().run(&spec, &ExecPolicy::Parallel { jobs: 3 })
    );
}
