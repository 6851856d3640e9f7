//! Determinism and serialization guarantees across the whole stack.

use ecas::trace::io::{read_csv, write_csv};
use ecas::trace::videos::EvalTraceSpec;
use ecas::trace::SessionTrace;
use ecas::{Approach, ExecPolicy, ExperimentRunner};

#[test]
fn whole_evaluation_is_deterministic() {
    let run = || {
        let sessions: Vec<_> = EvalTraceSpec::table_v()[..2]
            .iter()
            .map(EvalTraceSpec::generate)
            .collect();
        let runner = ExperimentRunner::paper();
        runner.run_grid(&sessions, &Approach::paper_set(), &ExecPolicy::Sequential)
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
}

#[test]
fn session_results_serde_roundtrip() {
    let session = EvalTraceSpec::table_v()[0].generate();
    let runner = ExperimentRunner::paper();
    for approach in Approach::paper_set() {
        let result = runner.run(&session, &approach);
        let json = serde_json::to_string(&result).unwrap();
        let back: ecas::sim::SessionResult = serde_json::from_str(&json).unwrap();
        assert_eq!(result, back);
    }
}

#[test]
fn comparison_summary_serde_roundtrip() {
    let sessions: Vec<_> = EvalTraceSpec::table_v()[..1]
        .iter()
        .map(EvalTraceSpec::generate)
        .collect();
    let runner = ExperimentRunner::paper();
    let summary = ecas::ComparisonSummary::evaluate(&runner, &sessions, &Approach::paper_set());
    let json = serde_json::to_string(&summary).unwrap();
    let back: ecas::ComparisonSummary = serde_json::from_str(&json).unwrap();
    assert_eq!(summary, back);
}

#[test]
fn traces_roundtrip_through_both_codecs() {
    let session = EvalTraceSpec::table_v()[1].generate();

    // The whole bundle through JSON …
    let mut json_buf = Vec::new();
    session.write_to(&mut json_buf).unwrap();
    let back = SessionTrace::read_from(json_buf.as_slice()).unwrap();
    assert_eq!(session, back);

    // … and each channel through CSV.
    let mut csv = Vec::new();
    write_csv(&mut csv, session.network()).unwrap();
    assert_eq!(session.network(), &read_csv(csv.as_slice()).unwrap());
    let mut csv = Vec::new();
    write_csv(&mut csv, session.signal()).unwrap();
    assert_eq!(session.signal(), &read_csv(csv.as_slice()).unwrap());
    let mut csv = Vec::new();
    write_csv(&mut csv, session.accel()).unwrap();
    assert_eq!(session.accel(), &read_csv(csv.as_slice()).unwrap());
}

#[test]
fn parallel_and_sequential_grids_agree() {
    let sessions: Vec<_> = EvalTraceSpec::table_v()[..3]
        .iter()
        .map(EvalTraceSpec::generate)
        .collect();
    let runner = ExperimentRunner::paper();
    let approaches = [Approach::Youtube, Approach::Festive, Approach::Ours];
    assert_eq!(
        runner.run_grid(&sessions, &approaches, &ExecPolicy::Sequential),
        runner.run_grid(&sessions, &approaches, &ExecPolicy::parallel())
    );
}

/// `serde_json::to_string` and `stable_hash` stream through
/// `Serialize::write_json`; both must equal the compact rendering of the
/// `Value` tree (`Value`'s `Display`), byte for byte and hash for hash.
fn assert_streams_like_value_tree<T: serde::Serialize>(x: &T) {
    use ecas::obs::{fnv1a_64, stable_hash};
    let streamed = serde_json::to_string(x).unwrap();
    let via_tree = serde_json::to_value(x).unwrap().to_string();
    assert!(
        streamed == via_tree,
        "streamed JSON differs from the Value tree"
    );
    assert_eq!(stable_hash(x), fnv1a_64(streamed.as_bytes()));
}

#[test]
fn real_types_stream_the_same_json_as_their_value_tree() {
    use ecas::record::{RecordScenario, RecordedSession};
    use ecas::sim::FaultSpec;
    use ecas::trace::population::PopulationSpec;
    use ecas::trace::Context;
    use ecas::types::units::Seconds;

    let table_v = EvalTraceSpec::table_v()[0].generate();
    let fleet_user = PopulationSpec::new(4, 1)
        .mean_duration(Seconds::new(24.0))
        .user(3)
        .synthesize();
    for trace in [&table_v, &fleet_user] {
        assert_streams_like_value_tree(trace);
    }

    let runner = ExperimentRunner::paper();
    for approach in Approach::paper_set() {
        assert_streams_like_value_tree(&runner.run(&fleet_user, &approach));
    }

    let sessions = [
        RecordedSession::TableV { id: 2 },
        RecordedSession::Synthetic {
            context: Context::Walking,
            seconds: 20.5,
            seed: 7,
        },
        RecordedSession::Commute {
            seconds: 120.0,
            seed: 3,
        },
        RecordedSession::Fleet {
            users: 4,
            seed: 1,
            index: 3,
            mean_duration_s: 24.0,
        },
    ];
    for (session, fault) in sessions
        .into_iter()
        .zip([None, Some(FaultSpec::moderate(1))].into_iter().cycle())
    {
        assert_streams_like_value_tree(&RecordScenario {
            session,
            approach: Approach::Ours,
            eta: 0.5,
            fault,
        });
    }
}
