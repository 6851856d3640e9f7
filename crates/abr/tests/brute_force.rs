//! Exhaustive verification of the optimal planner on the real models: on
//! instances small enough to enumerate every possible bitrate plan, the
//! layered-DP solution must match the brute-force optimum — its objective
//! always, and its levels wherever the optimum is unique.

use ecas_abr::{ObjectiveWeights, OptimalPlan, OptimalPlanner};
use ecas_power::model::PowerModel;
use ecas_power::task::TaskEnergyModel;
use ecas_qoe::model::QoeModel;
use ecas_sim::config::PlayerConfig;
use ecas_trace::synth::context::{Context, ContextSchedule};
use ecas_trace::synth::SessionGenerator;
use ecas_types::ladder::{BitrateLadder, LevelIndex};
use ecas_types::units::{Mbps, Seconds};

/// The exhaustive optimum of one instance.
struct BruteForce {
    cost: f64,
    plan: Vec<LevelIndex>,
    /// Whether every other plan costs more than `cost` by over 1e-9.
    unique: bool,
}

/// Enumerates all `m^n` plans and returns the best one.
fn brute_force_best(
    planner: &OptimalPlanner,
    session: &ecas_trace::session::SessionTrace,
    n: usize,
    m: usize,
) -> BruteForce {
    let total = m.pow(n as u32);
    let mut best = f64::INFINITY;
    let mut runner_up = f64::INFINITY;
    let mut best_plan = Vec::new();
    for code in 0..total {
        let mut c = code;
        let plan: Vec<LevelIndex> = (0..n)
            .map(|_| {
                let level = LevelIndex::new(c % m);
                c /= m;
                level
            })
            .collect();
        let cost = planner.objective_of(session, &plan);
        if cost < best {
            runner_up = best;
            best = cost;
            best_plan = plan;
        } else if cost < runner_up {
            runner_up = cost;
        }
    }
    BruteForce {
        cost: best,
        plan: best_plan,
        unique: runner_up - best > 1e-9,
    }
}

/// Asserts the planner's plan matches the brute-force optimum.
fn assert_matches(plan: &OptimalPlan, bf: &BruteForce, what: &str) {
    assert!(
        (plan.objective - bf.cost).abs() < 1e-9,
        "{what}: planner {} vs brute force {} (bf plan {:?})",
        plan.objective,
        bf.cost,
        bf.plan
    );
    if bf.unique {
        assert_eq!(plan.levels, bf.plan, "{what}: unique optimum");
    }
}

fn small_ladder(m: usize) -> BitrateLadder {
    let bitrates: Vec<Mbps> = [0.1, 0.75, 2.3, 5.8][..m]
        .iter()
        .map(|&b| Mbps::new(b))
        .collect();
    BitrateLadder::from_bitrates(bitrates).unwrap()
}

fn planner_for(ladder: BitrateLadder, eta: f64) -> OptimalPlanner {
    let config = PlayerConfig::paper();
    OptimalPlanner::new(
        ObjectiveWeights::new(eta),
        TaskEnergyModel::new(PowerModel::paper(), config.segment_duration),
        QoeModel::paper(),
        ladder,
        config,
    )
}

#[test]
fn shortest_path_matches_exhaustive_enumeration() {
    // 6 tasks x 4 levels = 4096 plans; several seeds and contexts.
    for (seed, ctx) in [
        (1, Context::QuietRoom),
        (2, Context::MovingVehicle),
        (3, Context::Walking),
        (4, Context::MovingVehicle),
    ] {
        let session = SessionGenerator::new(
            "bf",
            ContextSchedule::constant(ctx),
            Seconds::new(12.0), // 6 tasks at tau = 2 s
            seed,
        )
        .generate();
        let planner = planner_for(small_ladder(4), 0.5);
        let plan = planner.plan(&session);
        let bf = brute_force_best(&planner, &session, 6, 4);
        assert_matches(&plan, &bf, &format!("seed {seed} {ctx:?}"));
    }
}

#[test]
fn shortest_path_matches_enumeration_across_eta() {
    let session = SessionGenerator::new(
        "bf-eta",
        ContextSchedule::constant(Context::MovingVehicle),
        Seconds::new(10.0), // 5 tasks
        9,
    )
    .generate();
    for eta in [0.0, 0.2, 0.5, 0.8, 1.0] {
        let planner = planner_for(small_ladder(3), eta);
        let plan = planner.plan(&session);
        let bf = brute_force_best(&planner, &session, 5, 3);
        assert_matches(&plan, &bf, &format!("eta {eta}"));
    }
}

#[test]
fn single_task_instance_picks_per_task_argmin() {
    let session = SessionGenerator::new(
        "bf-single",
        ContextSchedule::constant(Context::QuietRoom),
        Seconds::new(2.0), // one task
        5,
    )
    .generate();
    let planner = planner_for(small_ladder(4), 0.5);
    let plan = planner.plan(&session);
    assert_eq!(plan.levels.len(), 1);
    let bf = brute_force_best(&planner, &session, 1, 4);
    assert!(bf.unique);
    assert_eq!(plan.levels, bf.plan);
    assert!((plan.objective - bf.cost).abs() < 1e-12);
}

#[test]
fn single_level_ladder_has_only_one_plan() {
    let ladder = BitrateLadder::from_bitrates(vec![Mbps::new(1.5)]).unwrap();
    let session = SessionGenerator::new(
        "bf-onelevel",
        ContextSchedule::constant(Context::Walking),
        Seconds::new(8.0),
        6,
    )
    .generate();
    let planner = planner_for(ladder, 0.5);
    let plan = planner.plan(&session);
    assert_eq!(plan.levels, vec![LevelIndex::new(0); 4]);
}
