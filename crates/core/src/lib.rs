//! Energy-aware and context-aware video streaming — the public facade.
//!
//! This crate ties the reproduction together: the [`Approach`] registry
//! covers every algorithm compared in the paper, the
//! [`runner::ExperimentRunner`] replays them over session traces (in
//! parallel when asked), and [`metrics`] computes the exact quantities the
//! paper's Figures 5–7 report: whole-phone and extra-energy savings, QoE
//! degradation, and the energy-saving-over-QoE-degradation ratio.
//!
//! Sub-crates are re-exported under short names so a downstream user needs
//! only this crate (or the root `ecas` facade):
//!
//! * [`types`] — units, ladders, identifiers;
//! * [`trace`] — trace model + synthetic generators (Tables I, V);
//! * [`sensors`] — vibration estimation (Eq. 5);
//! * [`qoe`] — QoE models + subjective study + fitting (Table III);
//! * [`power`] — power models + validation (Fig. 1a, Table VI);
//! * [`net`] — bandwidth estimators;
//! * [`sim`] — the DASH player simulator;
//! * [`abr`] — all bitrate controllers (Algorithm 1, the optimal planner,
//!   FESTIVE, BBA, BOLA, MPC);
//! * [`obs`] — instrumentation: probes, metrics registry, run manifests.
//!
//! # Examples
//!
//! Reproduce the heart of the paper's evaluation — all five approaches on
//! a Table V trace:
//!
//! ```
//! use ecas_core::{Approach, ExperimentRunner};
//! use ecas_core::trace::videos::EvalTraceSpec;
//!
//! let session = EvalTraceSpec::table_v()[0].generate();
//! let runner = ExperimentRunner::paper();
//! let youtube = runner.run(&session, &Approach::Youtube);
//! let ours = runner.run(&session, &Approach::Ours);
//! assert!(ours.total_energy() < youtube.total_energy(), "ours saves energy");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod approach;
mod atomic;
pub mod corpus;
pub mod fleet;
pub mod metrics;
pub mod observe;
pub mod oracle;
mod pool;
pub mod record;
pub mod report;
pub mod robustness;
pub mod runner;
pub mod sweep;
pub mod viewer;

pub use approach::Approach;
pub use corpus::{CorpusDiff, CorpusIndex, CorpusOptions, VerifyOptions, VerifySummary};
pub use fleet::{FixedHistogram, FleetEngine, FleetReducer, FleetReport};
pub use metrics::{ComparisonSummary, TraceComparison};
pub use observe::{run_observed, run_observed_with};
pub use oracle::{Divergence, ObjectiveVerdict, Oracle, ReplayError, ReplayVerdict};
pub use record::{
    RecordManifest, RecordScenario, RecordedSession, SessionRecord, SessionRecordError,
};
pub use report::{render_markdown, Scenario, ScenarioBuilder, TraceSelection};
pub use robustness::{fault_sweep, table_v_robustness, FaultSweepCell, RobustnessRow, SeedStat};
pub use runner::ExperimentRunner;
pub use sweep::{CacheStats, ExecPolicy, SweepEngine};
pub use viewer::{expected_waste, quit_analysis, QuitAnalysis};

pub use ecas_abr as abr;
pub use ecas_net as net;
pub use ecas_obs as obs;
pub use ecas_power as power;
pub use ecas_qoe as qoe;
pub use ecas_sensors as sensors;
pub use ecas_sim as sim;
pub use ecas_trace as trace;
pub use ecas_types as types;
