//! Pins the content hashes that name things on disk.
//!
//! `stable_hash` is FNV-1a 64 over a value's compact JSON bytes. Those
//! hashes are persisted: as the `trace_hash` of every ECASR record (the
//! golden corpus included) and inside every sweep-cache file name. A
//! serializer change that moves a single byte would silently turn every
//! stored record into a trace mismatch and every warm cache into misses,
//! so the values below are fixed constants, not recomputed expectations.
//!
//! The cache file name also covers `crate_version`; a version bump
//! changes it on purpose and must update the pin here.

use std::fs;

use ecas_core::obs::stable_hash;
use ecas_core::sweep::{ExecPolicy, SweepEngine};
use ecas_core::trace::population::PopulationSpec;
use ecas_core::trace::videos::EvalTraceSpec;
use ecas_core::types::units::Seconds;
use ecas_core::{Approach, ExperimentRunner};

#[test]
fn table_v_trace_hash_is_pinned() {
    let trace = EvalTraceSpec::table_v()[0].generate();
    // Equals the `trace_hash` 6714350907245965899 recorded in
    // golden/tablev1-ours/manifest.json.
    assert_eq!(stable_hash(&trace), 0x5d2e_2a93_73b7_b24b);
}

#[test]
fn fleet_user_trace_hash_is_pinned() {
    let trace = PopulationSpec::new(4, 1)
        .mean_duration(Seconds::new(24.0))
        .user(3)
        .synthesize();
    assert_eq!(stable_hash(&trace), 0x9f4e_69f7_df41_235b);
}

#[test]
fn sweep_cache_file_name_is_pinned() {
    let dir = std::env::temp_dir().join(format!("ecas-hash-pin-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let engine = SweepEngine::new(ExperimentRunner::paper());
    let sessions = vec![EvalTraceSpec::table_v()[0].generate()];
    let _ = engine.run_grid(
        &sessions,
        &[Approach::Ours],
        &ExecPolicy::cached(&dir, ExecPolicy::Sequential),
    );
    let names: Vec<String> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    fs::remove_dir_all(&dir).ok();
    assert_eq!(names, ["47ee96f2518a4fd2.jsonl"]);
}
