//! The four workloads, each a batch job of fixed size that is repeated
//! for the measured time. A repetition ("rep") returns its phase times
//! and, when traced, its span ledger and deterministic work counts.
//!
//! Untraced reps call the program's real entry points (`FleetEngine::run`,
//! `corpus::batch_record` / `corpus::verify`, `SweepEngine::run_grid`).
//! Traced reps make the same calls one layer down, from this file, so a
//! span can sit at every layer boundary; their outputs are checked
//! against the untraced ones.

use std::collections::BTreeMap;
use std::ffi::OsString;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::Instant;

use ecas_core::abr::optimal::{OptimalPlanner, PlannedController};
use ecas_core::corpus::{self, CorpusEntry, CorpusOptions, VerifyOptions};
use ecas_core::obs::{fnv1a_64, stable_hash};
use ecas_core::sim::result::SessionResult;
use ecas_core::trace::population::{PopulationSpec, UserSpec};
use ecas_core::trace::record::RECORD_EXTENSION;
use ecas_core::trace::session::SessionTrace;
use ecas_core::trace::videos::EvalTraceSpec;
use ecas_core::types::units::Seconds;
use ecas_core::{
    Approach, CacheStats, CorpusIndex, ExecPolicy, ExperimentRunner, FleetEngine, FleetReducer,
    FleetReport, Oracle, RecordScenario, RecordedSession, ReplayVerdict, SessionRecord,
    SweepEngine,
};

use crate::layers::{Counters, TimedController};
use crate::spans::{Ledger, Tracer, REP};

/// Nominal session length of the fleet workloads (the `fleet --smoke` shape).
const FLEET_MEAN_S: f64 = 24.0;
/// Nominal session length of the corpus workload.
const CORPUS_MEAN_S: f64 = 60.0;
/// Eq. (11) η of the corpus scenarios.
const CORPUS_ETA: f64 = 0.5;
/// Seed of the warm-up instance run before set-up.
const WARM_SEED: u64 = 0;
/// Set-up runs per process; the median is reported.
const SETUP_REPEATS: usize = 9;
/// Untraced reps even when the measured time is already spent.
const MIN_REPS: usize = 3;
/// Reps of the traced run (a fixed count keeps the span log small).
const TRACED_REPS: usize = 5;
/// `CellKey::format` of the sweep cache, part of every record's key.
const CACHE_FORMAT: u32 = 1;
/// Batch size of the traced fleet loop, as in `FleetEngine::run`.
const FLEET_BATCH: u64 = FleetEngine::DEFAULT_BATCH as u64;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Uncached fleet: trace synthesis, simulator, fleet reducer.
    FleetStream,
    /// The same fleet through a fresh result cache, filled then hit.
    FleetCache,
    /// ECASR `batch_record` into a fresh corpus, then `verify`.
    Corpus,
    /// Table V plus long sessions over an η grid for Ours and Optimal.
    ParetoOptimal,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::FleetStream,
        Workload::FleetCache,
        Workload::Corpus,
        Workload::ParetoOptimal,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetStream => "fleet_stream",
            Workload::FleetCache => "fleet_cache",
            Workload::Corpus => "corpus",
            Workload::ParetoOptimal => "pareto_optimal",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes of one rep of each workload.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// `fleet_stream` users.
    pub fleet_users: u64,
    /// `fleet_cache` users.
    pub cache_users: u64,
    /// `corpus` users.
    pub corpus_users: u64,
    /// Long sessions added to the five Table V traces.
    pub long_sessions: u64,
    /// Length of each long session in seconds.
    pub long_session_s: f64,
    /// The η grid of `pareto_optimal`.
    pub etas: Vec<f64>,
}

impl Sizes {
    /// The sizes the benchmark measures.
    #[must_use]
    pub fn standard() -> Self {
        Self {
            fleet_users: 2048,
            cache_users: 150,
            corpus_users: 120,
            long_sessions: 3,
            long_session_s: 600.0,
            etas: vec![0.1, 0.3, 0.5, 0.7, 0.9],
        }
    }

    /// The small instance that warms the code path before set-up.
    fn warm() -> Self {
        Self {
            fleet_users: 64,
            cache_users: 8,
            corpus_users: 4,
            long_sessions: 0,
            long_session_s: 0.0,
            etas: vec![0.5],
        }
    }

    /// Small sizes for tests.
    #[must_use]
    pub fn tiny() -> Self {
        Self {
            fleet_users: 24,
            cache_users: 6,
            corpus_users: 4,
            long_sessions: 1,
            long_session_s: 60.0,
            etas: vec![0.3, 0.7],
        }
    }
}

/// How one workload process runs.
#[derive(Debug, Clone)]
pub struct Config {
    /// Input seed.
    pub seed: u64,
    /// Measured seconds of the untraced reps.
    pub seconds: f64,
    /// Input sizes.
    pub sizes: Sizes,
    /// Scratch directory for caches and corpora (removed afterwards).
    pub work_dir: PathBuf,
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything one workload process measured.
pub struct Outcome {
    /// Operations checked: correctness checks, hit-pass cache lookups,
    /// verified records.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// End-to-end metrics of the untraced reps.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
    /// The traced reps' spans (traced runs only).
    pub tracer: Option<Tracer>,
}

/// Counts operations and failed ones; says on stderr what failed.
#[derive(Debug, Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn check(&mut self, ok: bool, what: &str) {
        self.count(1, u64::from(!ok), what);
    }

    fn count(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            eprintln!("check failed: {what} ({failed} of {attempted})");
        }
    }
}

/// Deterministic work counts of one rep, by metric name.
type Work = BTreeMap<&'static str, f64>;

/// One repetition's phase times (seconds) and, when traced, its ledger.
struct Rep {
    /// Time of the first phase: the whole job, or the persisting phase
    /// of a two-phase workload.
    write_s: f64,
    /// Time of the serving phase (0 for one-phase workloads).
    read_s: f64,
    /// Bytes the rep left on disk.
    disk_bytes: u64,
    work: Work,
    ledger: Option<Ledger>,
}

impl Rep {
    fn total_s(&self) -> f64 {
        self.write_s + self.read_s
    }
}

/// A workload's inputs plus what its checks remember between reps.
trait Job {
    /// Runs one rep and checks its output.
    fn rep(&mut self, t: &mut Tracer, cfg: &Config, checks: &mut Checks) -> io::Result<Rep>;
    /// Session-seconds of one phase of one rep.
    fn session_s(&self) -> f64;
    /// Whether a rep has a persisting and a serving phase.
    fn two_phase(&self) -> bool;
}

/// Runs `workload` under `cfg`: a warm-up, the timed set-ups, the
/// untraced reps, the traced reps when `traced`, then the final checks.
///
/// # Errors
///
/// Returns an I/O error when the scratch directory cannot be used.
pub fn run(workload: Workload, cfg: &Config, traced: bool) -> io::Result<Outcome> {
    let mut checks = Checks::default();
    warm_up(workload, cfg, &mut checks)?;
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut job = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        fs::create_dir_all(&cfg.work_dir)?;
        job = Some(make_job(workload, cfg)?);
        setups.push(start.elapsed().as_secs_f64());
    }
    let mut job = job.ok_or_else(|| io::Error::other("no set-up ran"))?;

    let plain = measure(
        job.as_mut(),
        &mut Tracer::new(false),
        cfg,
        cfg.seconds,
        MIN_REPS,
        &mut checks,
    )?;
    let mut tracer = Tracer::new(true);
    let traced_reps = if traced {
        measure(
            job.as_mut(),
            &mut tracer,
            cfg,
            0.0,
            TRACED_REPS,
            &mut checks,
        )?
    } else {
        Vec::new()
    };
    if let Some(first) = traced_reps.first() {
        let same = traced_reps.iter().filter(|r| r.work == first.work).count() as u64;
        checks.count(
            traced_reps.len() as u64,
            traced_reps.len() as u64 - same,
            "traced work counts repeat",
        );
    }

    let session_s = job.session_s();
    let phases = if job.two_phase() { 2.0 } else { 1.0 };
    let rss = peak_rss_mb();
    checks.check(rss.is_some(), "peak RSS is readable");
    let mut end_to_end = vec![
        metric(
            "sess_s_per_s",
            median(plain.iter().map(|r| phases * session_s / r.total_s())),
            "1/s",
        ),
        metric("setup_s", median(setups.iter().copied()), "s"),
        metric("peak_rss_mb", rss.unwrap_or(0.0), "MB"),
    ];
    let per_layer = if traced {
        layer_metrics(&plain, &traced_reps, session_s, job.two_phase())
    } else {
        Vec::new()
    };
    let ok = 1.0 - checks.failed as f64 / checks.attempted.max(1) as f64;
    end_to_end.push(metric("ok_ratio", ok, "ratio"));
    Ok(Outcome {
        attempted: checks.attempted,
        failed: checks.failed,
        end_to_end,
        per_layer,
        tracer: traced.then_some(tracer),
    })
}

/// Repeats `job` until `seconds` have passed and at least `min_reps`
/// reps ran.
fn measure(
    job: &mut dyn Job,
    t: &mut Tracer,
    cfg: &Config,
    seconds: f64,
    min_reps: usize,
    checks: &mut Checks,
) -> io::Result<Vec<Rep>> {
    let start = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < min_reps || start.elapsed().as_secs_f64() < seconds {
        let mark = t.len();
        let mut rep = job.rep(t, cfg, checks)?;
        if t.is_on() {
            rep.ledger = Some(t.ledger(mark));
        }
        reps.push(rep);
    }
    let times: Vec<String> = reps.iter().map(|r| format!("{:.4}", r.total_s())).collect();
    let mode = if t.is_on() { "traced" } else { "untraced" };
    eprintln!("{mode} rep seconds: {}", times.join(" "));
    Ok(reps)
}

/// Warms the code path with one untimed rep of a small instance of the
/// same job. The warm instance has a fixed seed, so the warm-up does the
/// same work whatever the input seed.
fn warm_up(workload: Workload, cfg: &Config, checks: &mut Checks) -> io::Result<()> {
    let warm_cfg = Config {
        seed: WARM_SEED,
        sizes: Sizes::warm(),
        ..cfg.clone()
    };
    fs::create_dir_all(&warm_cfg.work_dir)?;
    let mut warm = make_job(workload, &warm_cfg)?;
    warm.rep(&mut Tracer::new(false), &warm_cfg, checks)?;
    Ok(())
}

/// Set-up: builds the job's inputs and, for `fleet_cache`, the uncached
/// render its passes are checked against.
fn make_job(workload: Workload, cfg: &Config) -> io::Result<Box<dyn Job>> {
    let sizes = &cfg.sizes;
    Ok(match workload {
        Workload::FleetStream => {
            let spec = fleet_spec(sizes.fleet_users, cfg.seed);
            Box::new(FleetStream {
                session_s: fleet_session_s(&spec),
                spec,
                engine: FleetEngine::paper(),
                reference: None,
            })
        }
        Workload::FleetCache => {
            let spec = fleet_spec(sizes.cache_users, cfg.seed);
            let uncached = FleetEngine::paper().run(&spec, &ExecPolicy::Sequential);
            Box::new(FleetCache {
                session_s: fleet_session_s(&spec),
                spec,
                uncached: uncached.render(),
            })
        }
        Workload::Corpus => Box::new(Corpus {
            scenarios: corpus::fleet_scenarios(
                sizes.corpus_users,
                cfg.seed,
                CORPUS_MEAN_S,
                Approach::Ours,
                CORPUS_ETA,
                None,
            ),
            session_s: fleet_session_s(
                &PopulationSpec::new(sizes.corpus_users, cfg.seed)
                    .mean_duration(Seconds::new(CORPUS_MEAN_S)),
            ),
            digests: None,
        }),
        Workload::ParetoOptimal => {
            let mut sessions: Vec<SessionTrace> = EvalTraceSpec::table_v()
                .iter()
                .map(EvalTraceSpec::generate)
                .collect();
            for k in 0..sizes.long_sessions {
                let long = RecordedSession::Commute {
                    seconds: sizes.long_session_s,
                    seed: cfg.seed.wrapping_mul(1000).wrapping_add(k),
                };
                sessions.push(long.generate().map_err(io::Error::other)?);
            }
            Box::new(Pareto {
                sessions,
                etas: sizes.etas.clone(),
                first: None,
            })
        }
    })
}

// ------------------------------------------------------------ fleet_stream

fn fleet_spec(users: u64, seed: u64) -> PopulationSpec {
    PopulationSpec::new(users, seed).mean_duration(Seconds::new(FLEET_MEAN_S))
}

fn fleet_session_s(spec: &PopulationSpec) -> f64 {
    (0..spec.users())
        .map(|i| spec.user(i).duration.value())
        .sum()
}

struct FleetStream {
    spec: PopulationSpec,
    /// Session-seconds of `spec`.
    session_s: f64,
    engine: FleetEngine,
    reference: Option<String>,
}

impl Job for FleetStream {
    fn rep(&mut self, t: &mut Tracer, _cfg: &Config, checks: &mut Checks) -> io::Result<Rep> {
        let counters = Counters::default();
        let mut work = Work::new();
        let start = Instant::now();
        let report = t.span(REP, 0, |t| {
            if t.is_on() {
                traced_fleet(&self.spec, None, t, &counters, &mut work)
            } else {
                self.engine.run(&self.spec, &ExecPolicy::Sequential)
            }
        });
        let write_s = start.elapsed().as_secs_f64();
        let render = fleet_render(&report, &self.spec, checks);
        match &self.reference {
            Some(first) => checks.check(*first == render, "fleet render repeats in every rep"),
            None => self.reference = Some(render),
        }
        sim_work(&counters, &mut work);
        Ok(Rep {
            write_s,
            read_s: 0.0,
            disk_bytes: 0,
            work,
            ledger: None,
        })
    }

    fn session_s(&self) -> f64 {
        self.session_s
    }

    fn two_phase(&self) -> bool {
        false
    }
}

/// Checks a fleet report's totals and returns its render.
fn fleet_render(report: &FleetReport, spec: &PopulationSpec, checks: &mut Checks) -> String {
    checks.check(
        report.users == spec.users() && report.qoe_nan == 0 && report.energy_nan == 0,
        "fleet report covers every user with finite QoE and energy",
    );
    report.render()
}

/// `FleetEngine::run` one layer down: synthesize a batch, run its cells
/// (through the sweep engine under the cached policy, or cell by cell on
/// the simulator when `cached` is `None`), fold the results in user order.
fn traced_fleet(
    spec: &PopulationSpec,
    cached: Option<(&SweepEngine, &ExecPolicy)>,
    t: &mut Tracer,
    counters: &Counters,
    work: &mut Work,
) -> FleetReport {
    let runner = ExperimentRunner::paper();
    let mut reducer = FleetReducer::new();
    let mut start = 0u64;
    while start < spec.users() {
        let end = spec.users().min(start + FLEET_BATCH);
        let mut users: Vec<UserSpec> = Vec::new();
        let mut sessions: Vec<SessionTrace> = Vec::new();
        for i in start..end {
            let (user, session) = t.span("trace.synth", i, |_| {
                let user = spec.user(i);
                let session = user.synthesize();
                (user, session)
            });
            add(work, "trace.synth.samples", samples(&session));
            users.push(user);
            sessions.push(session);
        }
        let results: Vec<SessionResult> = match cached {
            Some((sweep, policy)) => {
                let (results, host) = t.span_id("core.sweep", start, |_| {
                    sweep.run_grid(&sessions, &[Approach::Ours], policy)
                });
                for (session, op) in sessions.iter().zip(start..) {
                    hash_replica(t, host, op, session, work);
                }
                results
            }
            None => sessions
                .iter()
                .zip(start..)
                .map(|(session, op)| run_cell(t, &runner, session, Approach::Ours, op, counters))
                .collect(),
        };
        for (user, result) in users.iter().zip(&results) {
            t.span("core.fleet", user.index, |_| reducer.absorb(user, result));
        }
        add(work, "core.fleet.absorb_calls", (end - start) as f64);
        start = end;
    }
    t.span("core.fleet", spec.users(), |_| reducer.finalize())
}

/// `ExperimentRunner::run` one layer down: build the controller, wrap
/// it so every decision is a span, run the simulator with the counters.
fn run_cell(
    t: &mut Tracer,
    runner: &ExperimentRunner,
    session: &SessionTrace,
    approach: Approach,
    op: u64,
    counters: &Counters,
) -> SessionResult {
    let simulator = runner.simulator();
    let controller = match approach {
        Approach::Optimal => {
            let planner = OptimalPlanner::with_eta(simulator.ladder().clone(), runner.eta());
            let plan = t.span("abr.optimal", op, |_| {
                planner.plan_with_probe(session, counters)
            });
            Box::new(PlannedController::new(&plan))
        }
        _ => approach.controller_with_eta(simulator, session, runner.eta()),
    };
    t.span("sim.player", op, |t| {
        let mut timed = TimedController::new(controller, t, op);
        simulator.run_with_probe(session, &mut timed, counters)
    })
}

/// The sweep cache key a record answers for, built as the sweep cache
/// builds it: the hex FNV-1a hash of the cell key's JSON, which holds the
/// hash of the player config's JSON. Returns the key and the bytes hashed.
fn cell_key(record: &SessionRecord) -> Result<(String, usize), serde_json::Error> {
    use serde_json::to_string as json;
    let runner = record.scenario.runner();
    let config = json(runner.simulator().config())?;
    let key = format!(
        "{{\"format\":{CACHE_FORMAT},\"crate_version\":{},\"eta\":{},\"config_hash\":\"{:016x}\",\
         \"ladder_mbps\":{},\"fault\":{},\"controller\":{},\"session\":\"{:016x}\",\"observed\":false}}",
        json(&record.crate_version)?,
        json(&record.scenario.eta)?,
        fnv1a_64(config.as_bytes()),
        json(&record.ladder_mbps)?,
        json(&record.scenario.fault)?,
        json(record.scenario.approach.label())?,
        record.trace_hash,
    );
    Ok((
        format!("{:016x}", fnv1a_64(key.as_bytes())),
        config.len() + key.len(),
    ))
}

/// Re-times the trace hash that a cache key or record computes inside
/// the `host` span, and counts the bytes it serializes.
fn hash_replica(
    t: &mut Tracer,
    host: Option<usize>,
    op: u64,
    trace: &SessionTrace,
    work: &mut Work,
) {
    std::hint::black_box(t.replica(host, "obs.stable_hash", op, || stable_hash(trace)));
    let bytes = t.aside(|| serde_json::to_string(trace).map_or(0, |json| json.len()));
    add(work, "obs.stable_hash.bytes", bytes as f64);
}

fn samples(trace: &SessionTrace) -> f64 {
    (trace.network().len() + trace.signal().len() + trace.accel().len()) as f64
}

fn add(work: &mut Work, key: &'static str, value: f64) {
    *work.entry(key).or_default() += value;
}

fn sim_work(counters: &Counters, work: &mut Work) {
    let pairs = [
        ("sim.segments", &counters.segments),
        ("sim.stalls", &counters.stalls),
        ("sim.idle_waits", &counters.idle_waits),
        ("sim.integration_chunks", &counters.integration_chunks),
        ("abr.labels_expanded", &counters.labels_expanded),
        ("abr.labels_pruned", &counters.labels_pruned),
        ("abr.edges_relaxed", &counters.edges_relaxed),
    ];
    for (key, counter) in pairs {
        add(work, key, counter.load(Ordering::Relaxed) as f64);
    }
}

// ------------------------------------------------------------- fleet_cache

struct FleetCache {
    spec: PopulationSpec,
    /// Session-seconds of `spec`.
    session_s: f64,
    /// The uncached `FleetEngine::run` render of `spec`: the
    /// `fleet_stream` render for the same seed and size.
    uncached: String,
}

impl FleetCache {
    /// One pass over a cache directory: the report and the pass's
    /// cache activity.
    fn pass(
        &self,
        t: &mut Tracer,
        policy: &ExecPolicy,
        work: &mut Work,
    ) -> (FleetReport, CacheStats) {
        if t.is_on() {
            let sweep = SweepEngine::new(ExperimentRunner::paper());
            let report = traced_fleet(
                &self.spec,
                Some((&sweep, policy)),
                t,
                &Counters::default(),
                work,
            );
            (report, sweep.stats())
        } else {
            let engine = FleetEngine::paper();
            let report = engine.run(&self.spec, policy);
            (report, engine.stats())
        }
    }
}

impl Job for FleetCache {
    fn rep(&mut self, t: &mut Tracer, cfg: &Config, checks: &mut Checks) -> io::Result<Rep> {
        let dir = fresh_dir(cfg, "cache")?;
        let policy = ExecPolicy::cached(&dir, ExecPolicy::Sequential);
        let mut work = Work::new();
        let mut times = [0.0; 2];
        let ((fill, fill_stats), (hit, hit_stats)) = t.span(REP, 0, |t| {
            let start = Instant::now();
            let fill = self.pass(t, &policy, &mut work);
            times[0] = start.elapsed().as_secs_f64();
            let start = Instant::now();
            let hit = self.pass(t, &policy, &mut work);
            times[1] = start.elapsed().as_secs_f64();
            (fill, hit)
        });
        let disk_bytes = dir_bytes(&dir)?;
        fs::remove_dir_all(&dir)?;

        for (report, pass) in [(&fill, "fill"), (&hit, "hit")] {
            let render = fleet_render(report, &self.spec, checks);
            checks.check(
                render == self.uncached,
                &format!("{pass}-pass render equals the uncached render"),
            );
        }
        checks.check(
            fill_stats.write_errors == 0,
            "fill pass persists every cell",
        );
        checks.check(hit_stats.all_hits(), "hit pass is all hits");
        checks.count(
            hit_stats.lookups(),
            hit_stats.misses + hit_stats.corrupt,
            "hit-pass lookups",
        );
        let lookups = hit_stats.lookups().max(1) as f64;
        let stats = [
            ("core.sweep.cache_hits", hit_stats.hits),
            ("core.sweep.cache_misses", fill_stats.misses),
            (
                "core.sweep.cache_corrupt",
                fill_stats.corrupt + hit_stats.corrupt,
            ),
            (
                "core.sweep.cache_from_record",
                fill_stats.from_record + hit_stats.from_record,
            ),
            ("core.sweep.bytes_written", disk_bytes),
            (
                "core.sweep.bytes_read",
                if hit_stats.all_hits() { disk_bytes } else { 0 },
            ),
        ];
        for (key, value) in stats {
            add(&mut work, key, value as f64);
        }
        add(
            &mut work,
            "core.sweep.hit_ratio",
            hit_stats.hits as f64 / lookups,
        );
        Ok(Rep {
            write_s: times[0],
            read_s: times[1],
            disk_bytes,
            work,
            ledger: None,
        })
    }

    fn session_s(&self) -> f64 {
        self.session_s
    }

    fn two_phase(&self) -> bool {
        true
    }
}

// ------------------------------------------------------------------ corpus

struct Corpus {
    scenarios: Vec<RecordScenario>,
    /// Session-seconds of the population `scenarios` are cut from.
    session_s: f64,
    /// The first rep's files (records and index) with content digests,
    /// sorted by name.
    digests: Option<Vec<(OsString, u64)>>,
}

impl Corpus {
    /// `corpus::batch_record` one layer down: every record goes to
    /// `<key>.ecasr` under its sweep cache key, then the sorted index is
    /// written. Returns the number of index entries.
    fn traced_record(
        &self,
        t: &mut Tracer,
        dir: &Path,
        counters: &Counters,
        work: &mut Work,
    ) -> Result<u64, Box<dyn std::error::Error>> {
        let mut entries = Vec::with_capacity(self.scenarios.len());
        for (scenario, op) in self.scenarios.iter().zip(0u64..) {
            let (record, host) = t.span_id("core.record.record", op, |_| {
                SessionRecord::record_with_probe(scenario.clone(), counters)
            });
            let record = record?;
            let trace = t.replica(host, "trace.synth", op, || scenario.session.generate())?;
            add(work, "trace.synth.samples", samples(&trace));
            hash_replica(t, host, op, &trace, work);
            let bytes = t.span("core.record.encode", op, |_| record.to_bytes())?;
            add(work, "core.record.bytes_encoded", bytes.len() as f64);
            let (key, hashed) = t.span("obs.stable_hash", op, |_| cell_key(&record))?;
            add(work, "obs.stable_hash.bytes", hashed as f64);
            t.span("fs", op, |_| {
                fs::write(dir.join(format!("{key}.{RECORD_EXTENSION}")), &bytes)
            })?;
            entries.push(CorpusEntry {
                key,
                label: record.scenario.label(),
                trace_hash: record.trace_hash,
                events: record.log.len(),
            });
        }
        entries.sort_by(|a, b| a.key.cmp(&b.key));
        entries.dedup();
        let index = CorpusIndex {
            format: corpus::INDEX_FORMAT,
            entries,
        };
        let json = serde_json::to_string_pretty(&index)? + "\n";
        let op = self.scenarios.len() as u64;
        t.span("fs", op, |_| fs::write(dir.join(corpus::INDEX_FILE), json))?;
        Ok(index.entries.len() as u64)
    }

    /// `corpus::verify` one layer down; returns (records, failures).
    fn traced_verify(
        &self,
        t: &mut Tracer,
        dir: &Path,
        work: &mut Work,
    ) -> Result<(u64, u64), Box<dyn std::error::Error>> {
        let (mut records, mut failures) = (0, 0);
        for (path, op) in corpus::list(dir)?.iter().zip(0u64..) {
            let data = t.span("fs", op, |_| fs::read(path))?;
            let record = t.span("core.record.decode", op, |_| {
                SessionRecord::from_bytes(&data)
            })?;
            let (verdict, host) = t.span_id("core.oracle", op, |_| {
                let trace = record.regenerate_trace()?;
                let runner = record.scenario.runner();
                let oracle = Oracle::new(runner.simulator(), record.scenario.eta);
                Ok::<_, ecas_core::SessionRecordError>(oracle.check_replay(
                    &trace,
                    &record.reference,
                    Some(&record.log),
                ))
            });
            let trace = t.replica(host, "trace.synth", op, || {
                record.scenario.session.generate()
            })?;
            add(work, "trace.synth.samples", samples(&trace));
            hash_replica(t, host, op, &trace, work);
            records += 1;
            match verdict? {
                ReplayVerdict::Pass { checks } => add(work, "core.oracle.checks", checks as f64),
                _ => failures += 1,
            }
        }
        Ok((records, failures))
    }
}

impl Job for Corpus {
    fn rep(&mut self, t: &mut Tracer, cfg: &Config, checks: &mut Checks) -> io::Result<Rep> {
        let dir = fresh_dir(cfg, "corpus")?;
        let counters = Counters::default();
        let mut work = Work::new();
        let mut times = [0.0; 2];
        let outcome = t.span(REP, 0, |t| {
            let start = Instant::now();
            if t.is_on() {
                let entries = self.traced_record(t, &dir, &counters, &mut work)?;
                times[0] = start.elapsed().as_secs_f64();
                let start = Instant::now();
                let (records, failures) = self.traced_verify(t, &dir, &mut work)?;
                times[1] = start.elapsed().as_secs_f64();
                Ok::<_, Box<dyn std::error::Error>>((entries, records, failures))
            } else {
                let index = corpus::batch_record(
                    &dir,
                    &self.scenarios,
                    &CorpusOptions {
                        jobs: 1,
                        batch: 256,
                    },
                )?;
                times[0] = start.elapsed().as_secs_f64();
                let start = Instant::now();
                let summary = corpus::verify(
                    &corpus::list(&dir)?,
                    &VerifyOptions {
                        jobs: 1,
                        filter: None,
                    },
                );
                times[1] = start.elapsed().as_secs_f64();
                Ok((
                    index.entries.len() as u64,
                    summary.records as u64,
                    summary.failures as u64,
                ))
            }
        });
        let users = self.scenarios.len() as u64;
        match outcome {
            Ok((entries, records, failures)) => {
                checks.check(
                    entries == users && records == users,
                    "corpus holds one record per user",
                );
                checks.count(records, failures, "verify");
            }
            Err(e) => checks.check(false, &format!("corpus rep: {e}")),
        }
        let mut digests = Vec::new();
        for entry in fs::read_dir(&dir)? {
            let path = entry?.path();
            digests.push((
                path.file_name().unwrap_or_default().to_os_string(),
                fnv1a_64(&fs::read(&path)?),
            ));
        }
        digests.sort_unstable();
        match &self.digests {
            Some(first) => checks.check(
                *first == digests,
                "corpus files and their names are byte-identical in every rep",
            ),
            None => self.digests = Some(digests),
        }
        let disk_bytes = dir_bytes(&dir)?;
        fs::remove_dir_all(&dir)?;
        sim_work(&counters, &mut work);
        Ok(Rep {
            write_s: times[0],
            read_s: times[1],
            disk_bytes,
            work,
            ledger: None,
        })
    }

    fn session_s(&self) -> f64 {
        self.session_s
    }

    fn two_phase(&self) -> bool {
        true
    }
}

// ---------------------------------------------------------- pareto_optimal

const PARETO_APPROACHES: [Approach; 2] = [Approach::Ours, Approach::Optimal];

struct Pareto {
    sessions: Vec<SessionTrace>,
    etas: Vec<f64>,
    /// The first rep's results, checked against the oracle; later reps
    /// must equal them.
    first: Option<Vec<SessionResult>>,
}

impl Job for Pareto {
    fn rep(&mut self, t: &mut Tracer, _cfg: &Config, checks: &mut Checks) -> io::Result<Rep> {
        let counters = Counters::default();
        let mut work = Work::new();
        let start = Instant::now();
        let results = t.span(REP, 0, |t| {
            let mut results = Vec::new();
            for (e, &eta) in self.etas.iter().enumerate() {
                let runner = ExperimentRunner::paper_with_eta(eta);
                if t.is_on() {
                    for (s, session) in self.sessions.iter().enumerate() {
                        for (a, approach) in PARETO_APPROACHES.into_iter().enumerate() {
                            let op = ((e * self.sessions.len() + s) * PARETO_APPROACHES.len() + a)
                                as u64;
                            results.push(run_cell(t, &runner, session, approach, op, &counters));
                        }
                    }
                } else {
                    let sweep = SweepEngine::new(runner);
                    results.extend(sweep.run_grid(
                        &self.sessions,
                        &PARETO_APPROACHES,
                        &ExecPolicy::Sequential,
                    ));
                }
            }
            results
        });
        let write_s = start.elapsed().as_secs_f64();
        match &self.first {
            Some(first) => checks.check(*first == results, "grid results repeat in every rep"),
            None => {
                self.check_objectives(&results, checks);
                self.first = Some(results);
            }
        }
        sim_work(&counters, &mut work);
        Ok(Rep {
            write_s,
            read_s: 0.0,
            disk_bytes: 0,
            work,
            ledger: None,
        })
    }

    fn session_s(&self) -> f64 {
        let one: f64 = self
            .sessions
            .iter()
            .map(|s| s.meta().video_length.value())
            .sum();
        one * (self.etas.len() * PARETO_APPROACHES.len()) as f64
    }

    fn two_phase(&self) -> bool {
        false
    }
}

impl Pareto {
    /// Every cell's realized Eq. (11) objective must be no better than
    /// the optimal plan's.
    fn check_objectives(&self, results: &[SessionResult], checks: &mut Checks) {
        let mut cells = results.iter();
        for &eta in &self.etas {
            let runner = ExperimentRunner::paper_with_eta(eta);
            let oracle = Oracle::new(runner.simulator(), eta);
            for session in &self.sessions {
                let optimal = oracle.optimal_objective(session);
                for approach in PARETO_APPROACHES {
                    let holds = cells.next().is_some_and(|result| {
                        oracle
                            .check_objective_against(session, result, optimal)
                            .is_ok_and(|v| v.holds())
                    });
                    checks.check(
                        holds,
                        &format!(
                            "{approach} objective at eta {eta} on {}",
                            session.meta().name
                        ),
                    );
                }
            }
        }
    }
}

// ------------------------------------------------------------------ metrics

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Median of `values` (0 when empty).
fn median(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Per-layer metrics: counts from the first traced rep (they repeat
/// exactly), times and shares as medians over the traced reps, phase
/// rates from the untraced reps.
fn layer_metrics(plain: &[Rep], traced: &[Rep], session_s: f64, two_phase: bool) -> Vec<Metric> {
    let ledgers: Vec<&Ledger> = traced.iter().filter_map(|r| r.ledger.as_ref()).collect();
    let busy = |layer: &str| median(ledgers.iter().map(|l| l.busy_s(layer)));
    let share = |layer: &str| {
        median(
            ledgers
                .iter()
                .map(|l| l.busy_s(layer) / l.wall_s().max(1e-12)),
        )
    };
    let calls = |layer: &str| ledgers.first().map_or(0.0, |l| l.calls(layer) as f64);
    let work = |key: &str| {
        traced
            .first()
            .and_then(|r| r.work.get(key).copied())
            .unwrap_or(0.0)
    };
    let expanded = work("abr.labels_expanded");
    let popped = expanded + work("abr.labels_pruned");
    let phase_rate = |f: fn(&Rep) -> f64| {
        if two_phase {
            median(plain.iter().map(|r| session_s / f(r)))
        } else {
            0.0
        }
    };
    let traced_wall = median(ledgers.iter().map(|l| l.wall_s()));
    let plain_wall = median(plain.iter().map(Rep::total_s));
    vec![
        metric("trace.synth.calls", calls("trace.synth"), "count"),
        metric("trace.synth.busy_s", busy("trace.synth"), "s"),
        metric("trace.synth.samples", work("trace.synth.samples"), "count"),
        metric("trace.synth.share", share("trace.synth"), "ratio"),
        metric("obs.stable_hash.calls", calls("obs.stable_hash"), "count"),
        metric("obs.stable_hash.busy_s", busy("obs.stable_hash"), "s"),
        metric("obs.stable_hash.bytes", work("obs.stable_hash.bytes"), "B"),
        metric("obs.stable_hash.share", share("obs.stable_hash"), "ratio"),
        metric("core.sweep.busy_s", busy("core.sweep"), "s"),
        metric(
            "core.sweep.cache_hits",
            work("core.sweep.cache_hits"),
            "count",
        ),
        metric(
            "core.sweep.cache_misses",
            work("core.sweep.cache_misses"),
            "count",
        ),
        metric(
            "core.sweep.cache_corrupt",
            work("core.sweep.cache_corrupt"),
            "count",
        ),
        metric(
            "core.sweep.cache_from_record",
            work("core.sweep.cache_from_record"),
            "count",
        ),
        metric(
            "core.sweep.hit_ratio",
            work("core.sweep.hit_ratio"),
            "ratio",
        ),
        metric(
            "core.sweep.bytes_written",
            work("core.sweep.bytes_written"),
            "B",
        ),
        metric("core.sweep.bytes_read", work("core.sweep.bytes_read"), "B"),
        metric("sim.player.runs", calls("sim.player"), "count"),
        metric("sim.player.busy_s", busy("sim.player"), "s"),
        metric("sim.segments", work("sim.segments"), "count"),
        metric("sim.stalls", work("sim.stalls"), "count"),
        metric("sim.idle_waits", work("sim.idle_waits"), "count"),
        metric(
            "sim.integration_chunks",
            work("sim.integration_chunks"),
            "count",
        ),
        metric("abr.decide.calls", calls("abr.decide"), "count"),
        metric("abr.decide.busy_s", busy("abr.decide"), "s"),
        metric("abr.optimal.plans", calls("abr.optimal"), "count"),
        metric("abr.optimal.busy_s", busy("abr.optimal"), "s"),
        metric("abr.labels_expanded", expanded, "count"),
        metric("abr.edges_relaxed", work("abr.edges_relaxed"), "count"),
        metric("abr.labels_pruned", work("abr.labels_pruned"), "count"),
        metric(
            "abr.optimal.useful_ratio",
            if popped > 0.0 { expanded / popped } else { 0.0 },
            "ratio",
        ),
        metric("core.record.record_busy_s", busy("core.record.record"), "s"),
        metric("core.record.encode_busy_s", busy("core.record.encode"), "s"),
        metric("core.record.decode_busy_s", busy("core.record.decode"), "s"),
        metric(
            "core.record.bytes_encoded",
            work("core.record.bytes_encoded"),
            "B",
        ),
        metric("core.oracle.replays", calls("core.oracle"), "count"),
        metric("core.oracle.busy_s", busy("core.oracle"), "s"),
        metric("core.oracle.checks", work("core.oracle.checks"), "count"),
        metric(
            "core.fleet.absorb_calls",
            work("core.fleet.absorb_calls"),
            "count",
        ),
        metric("core.fleet.busy_s", busy("core.fleet"), "s"),
        metric("fs.busy_s", busy("fs"), "s"),
        metric("bench.glue_s", busy(REP), "s"),
        metric(
            "traced.coverage",
            median(ledgers.iter().map(|l| l.coverage())),
            "ratio",
        ),
        metric(
            "traced.overhead",
            traced_wall / plain_wall.max(1e-12) - 1.0,
            "ratio",
        ),
        metric("write_sess_s_per_s", phase_rate(|r| r.write_s), "1/s"),
        metric("read_sess_s_per_s", phase_rate(|r| r.read_s), "1/s"),
        metric(
            "bytes_per_sess_s",
            median(
                plain
                    .iter()
                    .map(|r| r.disk_bytes as f64 / session_s.max(1e-12)),
            ),
            "B/s",
        ),
    ]
}

// -------------------------------------------------------------------- disk

/// A new empty directory under the work directory.
fn fresh_dir(cfg: &Config, tag: &str) -> io::Result<PathBuf> {
    let dir = cfg.work_dir.join(tag);
    if dir.exists() {
        fs::remove_dir_all(&dir)?;
    }
    fs::create_dir_all(&dir)?;
    Ok(dir)
}

fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in fs::read_dir(dir)? {
        total += entry?.metadata()?.len();
    }
    Ok(total)
}

/// Peak resident memory of this process in MB (Linux `VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
