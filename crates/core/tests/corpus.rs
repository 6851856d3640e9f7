//! Corpus round-trip through the public API: batch-record a small
//! fleet, verify it cold (order-stable across worker counts, filterable
//! by label), then warm a cached fleet run straight from the recorded
//! references — zero simulator executions. Corpus diffs match records
//! on scenario identity.

use std::path::{Path, PathBuf};

use ecas_core::corpus::{self, CorpusError, CorpusIndex, CorpusOptions, VerifyOptions};
use ecas_core::fleet::FleetEngine;
use ecas_core::record::{RecordScenario, RecordedSession, SessionRecord};
use ecas_core::trace::population::PopulationSpec;
use ecas_core::types::units::Seconds;
use ecas_core::{Approach, ExecPolicy};

const USERS: u64 = 4;
const SEED: u64 = 99;
const DURATION_S: f64 = 20.0;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ecas-corpus-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn record_fleet(dir: &Path) -> CorpusIndex {
    let scenarios = corpus::fleet_scenarios(USERS, SEED, DURATION_S, Approach::Ours, 0.5, None);
    corpus::batch_record(dir, &scenarios, &CorpusOptions { jobs: 2, batch: 2 }).unwrap()
}

#[test]
fn corpus_round_trip_records_verifies_and_warms_a_fleet_run() {
    let dir = temp_dir("roundtrip");
    let index = record_fleet(&dir);
    assert_eq!(index.entries.len(), USERS as usize);

    // Cold verify: the parallel summary is byte-identical to the
    // sequential one, regardless of completion order.
    let paths = corpus::list(&dir).unwrap();
    assert_eq!(paths.len(), USERS as usize);
    let sequential = corpus::verify(&paths, &VerifyOptions { jobs: 1, filter: None });
    let parallel = corpus::verify(&paths, &VerifyOptions { jobs: 3, filter: None });
    assert_eq!(sequential.failures, 0, "{}", sequential.render());
    assert_eq!(sequential.records, USERS as usize);
    assert_eq!(sequential.render(), parallel.render());

    // Label filtering skips (not fails) the records that don't match.
    let one_user = corpus::verify(
        &paths,
        &VerifyOptions {
            jobs: 2,
            filter: Some("u1-".to_string()),
        },
    );
    assert_eq!(one_user.records, 1);
    assert_eq!(one_user.skipped, USERS as usize - 1);
    assert_eq!(one_user.failures, 0);

    // Warm fleet run served entirely from the recorded references: the
    // cache directory holds only `.ecasr` files (no JSONL entries), yet
    // every cell hits and the simulator never runs.
    let spec = PopulationSpec::new(USERS, SEED).mean_duration(Seconds::new(DURATION_S));
    let uncached = FleetEngine::paper().run(&spec, &ExecPolicy::Sequential);
    let warm_engine = FleetEngine::paper();
    let warm = warm_engine.run(&spec, &ExecPolicy::cached(&dir, ExecPolicy::Sequential));
    let stats = warm_engine.stats();
    assert!(stats.all_hits(), "{stats:?}");
    assert_eq!(stats.from_record, USERS, "{stats:?}");
    assert_eq!(warm, uncached, "recorded references must reproduce the run");
    assert_eq!(warm.render(), uncached.render());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn diff_against_a_rerecorded_corpus_is_clean() {
    let dir_a = temp_dir("diff-a");
    let dir_b = temp_dir("diff-b");
    record_fleet(&dir_a);
    record_fleet(&dir_b);
    let diff = corpus::diff(&dir_a, &dir_b).unwrap();
    assert!(diff.is_clean(), "{}", diff.render());
    assert_eq!(diff.matched, USERS as usize);
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

/// Records Table V trace 1 under Ours at `eta`.
fn tablev1_at(eta: f64) -> SessionRecord {
    SessionRecord::record(RecordScenario {
        session: RecordedSession::TableV { id: 1 },
        approach: Approach::Ours,
        eta,
        fault: None,
    })
    .unwrap()
}

#[test]
fn diff_matches_records_on_scenario_identity_not_label() {
    // All four records share the label `tablev1-ours`; only η differs.
    // A holds η = 0.2 and 0.8, B holds η = 0.2 and 0.5: the η = 0.2 pair
    // must match, and neither 0.8 nor 0.5 may be compared to the other.
    let dir_a = temp_dir("identity-a");
    let dir_b = temp_dir("identity-b");
    let shared = tablev1_at(0.2);
    shared.save(dir_a.join("shared.ecasr")).unwrap();
    shared.save(dir_b.join("shared.ecasr")).unwrap();
    tablev1_at(0.8).save(dir_a.join("high.ecasr")).unwrap();
    tablev1_at(0.5).save(dir_b.join("mid.ecasr")).unwrap();

    let diff = corpus::diff(&dir_a, &dir_b).unwrap();
    let text = diff.render();
    assert!(
        text.ends_with("matched=1 diverged=0 only_a=1 only_b=1\n"),
        "{text}"
    );
    assert!(text.contains("match    tablev1-ours eta=0.2 id="), "{text}");
    assert!(text.contains("only-a   tablev1-ours eta=0.8 id="), "{text}");
    assert!(text.contains("only-b   tablev1-ours eta=0.5 id="), "{text}");

    // Two records of one scenario in a corpus are an error, not an
    // overwrite.
    shared.save(dir_b.join("copy.ecasr")).unwrap();
    let err = corpus::diff(&dir_a, &dir_b).unwrap_err();
    assert!(matches!(err, CorpusError::Duplicate { .. }), "{err}");
    let message = err.to_string();
    assert!(message.contains("tablev1-ours eta=0.2"), "{message}");
    assert!(
        message.contains("copy.ecasr") && message.contains("shared.ecasr"),
        "{message}"
    );

    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

#[test]
fn diff_rows_name_the_two_corpora() {
    let dir_a = temp_dir("sides-a");
    let dir_b = temp_dir("sides-b");
    tablev1_at(0.5).save(dir_a.join("r.ecasr")).unwrap();
    let mut tampered = tablev1_at(0.5);
    tampered.reference.switches += 1;
    tampered.save(dir_b.join("r.ecasr")).unwrap();
    let text = corpus::diff(&dir_a, &dir_b).unwrap().render();
    assert!(text.contains("diverge  tablev1-ours eta=0.5 id="), "{text}");
    let expected = format!(
        "switches: a {} vs b {} (exact count)",
        tampered.reference.switches - 1,
        tampered.reference.switches
    );
    assert!(text.contains(&expected), "{text}");
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}
