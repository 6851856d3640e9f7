//! The optimal algorithm (Section IV-A, Fig. 4).
//!
//! With full knowledge of the trace, bitrate selection maps to a shortest
//! path on a layered graph: one layer per task, one node per bitrate
//! level, edge weights given by the Eq. (11) cost of entering a level from
//! the previous one. The path from the source to the sink with minimum
//! total weight is the optimal bitrate plan.
//!
//! Per the paper, the plan's per-task conditions (throughput, signal,
//! vibration) are indexed from the trace by the task's playback slot,
//! making the edge weights separable (see `DESIGN.md`). The plan is then
//! *replayed* through the event simulator so that all approaches are
//! measured under identical mechanics.
//!
//! The paper solves the graph with Dijkstra's algorithm. A node of the
//! graph is just a (task, level) pair, so a forward dynamic program over
//! the task layers ([`solve_layers`]) finds the same shortest path
//! without building the graph, and handles the negative Eq. (11) weights
//! directly. Everything except the switch penalty depends on the level
//! alone, so it is tabulated once per (task, level) in a [`CostTable`].

use ecas_obs::{names, Probe, NULL_PROBE};
use ecas_power::task::{TaskConditions, TaskEnergyModel};
use ecas_qoe::model::QoeModel;
use ecas_sensors::vibration::vibration_level_in_window;
use ecas_sim::config::PlayerConfig;
use ecas_sim::controller::{BitrateController, DecisionContext};
use ecas_trace::session::SessionTrace;
use ecas_types::ladder::{BitrateLadder, LevelIndex};
use ecas_types::units::{Mbps, MetersPerSec2, Seconds};

use crate::objective::ObjectiveWeights;

/// An optimal bitrate plan for one session.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimalPlan {
    /// The chosen level for each task, in task order.
    pub levels: Vec<LevelIndex>,
    /// The Eq. (11) objective value of the plan.
    pub objective: f64,
}

/// Plans optimal bitrate sequences from full trace knowledge.
#[derive(Debug, Clone)]
pub struct OptimalPlanner {
    weights: ObjectiveWeights,
    energy_model: TaskEnergyModel,
    qoe_model: QoeModel,
    ladder: BitrateLadder,
    config: PlayerConfig,
}

impl OptimalPlanner {
    /// Creates a planner with explicit models.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid.
    #[must_use]
    pub fn new(
        weights: ObjectiveWeights,
        energy_model: TaskEnergyModel,
        qoe_model: QoeModel,
        ladder: BitrateLadder,
        config: PlayerConfig,
    ) -> Self {
        assert!(config.is_valid(), "invalid player config");
        Self {
            weights,
            energy_model,
            qoe_model,
            ladder,
            config,
        }
    }

    /// The paper's configuration (η = 0.5, calibrated models, τ = 2 s,
    /// B = 30 s).
    #[must_use]
    pub fn paper(ladder: BitrateLadder) -> Self {
        let config = PlayerConfig::paper();
        Self::new(
            ObjectiveWeights::paper(),
            TaskEnergyModel::new(
                ecas_power::model::PowerModel::paper(),
                config.segment_duration,
            ),
            QoeModel::paper(),
            ladder,
            config,
        )
    }

    /// The paper's configuration with a custom `η`.
    #[must_use]
    pub fn with_eta(ladder: BitrateLadder, eta: f64) -> Self {
        let config = PlayerConfig::paper();
        Self::new(
            ObjectiveWeights::new(eta),
            TaskEnergyModel::new(
                ecas_power::model::PowerModel::paper(),
                config.segment_duration,
            ),
            QoeModel::paper(),
            ladder,
            config,
        )
    }

    /// Number of tasks for a session.
    fn task_count(&self, session: &SessionTrace) -> usize {
        let tau = self.config.segment_duration.value();
        (session.meta().video_length.value() / tau).ceil() as usize
    }

    /// Tabulates the Eq. (11) terms of every (task, level) pair of the
    /// session's first `n` tasks: n·m energy and QoE model evaluations.
    fn cost_table(&self, session: &SessionTrace, n: usize) -> CostTable {
        let tau = self.config.segment_duration;
        let eta = self.weights.eta();
        let penalty = self.qoe_model.params().penalty;
        let max_bitrate = self.ladder.highest().bitrate();
        let bitrates: Vec<Mbps> = (0..self.ladder.len())
            .map(|j| self.ladder.bitrate(LevelIndex::new(j)))
            .collect();
        let q0: Vec<f64> = bitrates
            .iter()
            .map(|&r| self.qoe_model.quality().at(r).value())
            .collect();
        let mut cells = Vec::with_capacity(n * bitrates.len());
        for i in 0..n {
            let start = tau * i as f64;
            let end = start + tau;
            // Mean throughput over the slot (step function average at
            // slot start/end — cheap and adequate at 1 Hz traces).
            let thr = {
                let samples = session.network().window(start, end);
                if samples.is_empty() {
                    session.network().throughput_at(start)
                } else {
                    let sum: f64 = samples.iter().map(|s| s.throughput.value()).sum();
                    Mbps::new(sum / samples.len() as f64)
                }
            };
            let signal = session.signal().signal_at(start + tau * 0.5);
            // Vibration at playback time, per Eq. 5's trailing window.
            let vib_from = start.saturating_sub(Seconds::new(6.0));
            let vibration = vibration_level_in_window(session.accel(), vib_from, end)
                .unwrap_or(MetersPerSec2::zero());
            let conditions = TaskConditions {
                throughput: thr,
                signal,
                buffer_ahead: self.config.buffer_threshold,
            };
            let e_max = self
                .energy_model
                .max_energy(max_bitrate, conditions)
                .value();
            let q_max = self
                .qoe_model
                .max_segment_qoe(max_bitrate, vibration)
                .value()
                .max(1e-6);
            for (&bitrate, &base) in bitrates.iter().zip(&q0) {
                let energy = self.energy_model.energy(bitrate, conditions);
                cells.push(Cell {
                    energy: eta * (energy.total.value() / e_max),
                    impaired: base - self.qoe_model.impairment().at(vibration, bitrate),
                    stall: penalty.rebuffer_lambda * energy.rebuffer.value(),
                    q_max,
                });
            }
        }
        CostTable {
            qoe_weight: 1.0 - eta,
            switch_mu: penalty.switch_mu,
            q0,
            cells,
        }
    }

    /// Computes the optimal plan: the Fig. 4 shortest path, solved as a
    /// layered dynamic program (see [`solve_layers`]).
    ///
    /// # Panics
    ///
    /// Panics if the session is shorter than one segment.
    #[must_use]
    pub fn plan(&self, session: &SessionTrace) -> OptimalPlan {
        self.plan_with_probe(session, &NULL_PROBE)
    }

    /// [`OptimalPlanner::plan`] reporting the solver's deterministic work
    /// counters into `probe`: `abr/labels_expanded` = n·m (states solved)
    /// and `abr/edges_relaxed` = m + (n−1)·m² (transitions evaluated), for
    /// n tasks and m ladder levels.
    ///
    /// # Panics
    ///
    /// Panics on the same conditions as [`OptimalPlanner::plan`].
    #[must_use]
    pub fn plan_with_probe(&self, session: &SessionTrace, probe: &dyn Probe) -> OptimalPlan {
        let n = self.task_count(session);
        assert!(n > 0, "session shorter than one segment");
        let table = self.cost_table(session, n);
        let m = self.ladder.len();
        let (objective, path) = solve_layers(
            n,
            m,
            |j| table.cost(0, None, j),
            |i, jp, j| table.cost(i, Some(jp), j),
        );
        probe.add(names::ABR_LABELS_EXPANDED, (n * m) as u64);
        probe.add(names::ABR_EDGES_RELAXED, (m + (n - 1) * m * m) as u64);
        OptimalPlan {
            levels: path.into_iter().map(LevelIndex::new).collect(),
            objective,
        }
    }

    /// Evaluates the Eq. (11) objective of an arbitrary plan on this
    /// session (for comparisons; the optimal plan minimizes this). Uses
    /// the same cost terms as the solver, so for the optimal plan it
    /// returns exactly [`OptimalPlan::objective`].
    ///
    /// # Panics
    ///
    /// Panics if `levels` does not have one entry per task.
    #[must_use]
    pub fn objective_of(&self, session: &SessionTrace, levels: &[LevelIndex]) -> f64 {
        let n = self.task_count(session);
        assert_eq!(
            levels.len(),
            n,
            "plan length {} != task count {n}",
            levels.len()
        );
        let table = self.cost_table(session, n);
        let mut total = 0.0;
        let mut prev: Option<usize> = None;
        for (i, level) in levels.iter().enumerate() {
            total += table.cost(i, prev, level.value());
            prev = Some(level.value());
        }
        total
    }
}

/// The level-only Eq. (11) terms of one (task, level) pair.
struct Cell {
    /// `η · E_ij / E_i^max`.
    energy: f64,
    /// `q0(r_j) − I(v_i, r_j)`.
    impaired: f64,
    /// `λ · T_rebuf(i, j)`.
    stall: f64,
    /// The task's normalizer `Q_i^max`.
    q_max: f64,
}

/// A session's Eq. (11) cost terms: one [`Cell`] per (task, level),
/// task-major. Only the switch penalty depends on the previous level.
struct CostTable {
    /// `1 − η`.
    qoe_weight: f64,
    /// The switch-penalty weight `μ`.
    switch_mu: f64,
    /// `q0(r_j)` per level.
    q0: Vec<f64>,
    cells: Vec<Cell>,
}

impl CostTable {
    /// The Eq. (11) cost of `level` at `task`, entered from `prev`. The
    /// QoE term follows `QoeModel::segment_qoe` operation by operation,
    /// `((q0 − I) − switch − stall).clamp(0, 5)`, so the cost is
    /// bit-identical to evaluating the models directly.
    fn cost(&self, task: usize, prev: Option<usize>, level: usize) -> f64 {
        let m = self.q0.len();
        let (Some(cell), Some(&q0)) = (self.cells.get(task * m + level), self.q0.get(level)) else {
            return f64::INFINITY;
        };
        let switch = match prev.and_then(|p| self.q0.get(p)) {
            Some(&q0_prev) => self.switch_mu * (q0 - q0_prev).abs(),
            None => 0.0,
        };
        let qoe = (cell.impaired - switch - cell.stall).clamp(0.0, 5.0);
        cell.energy - self.qoe_weight * (qoe / cell.q_max)
    }
}

/// Shortest path through `n` layers of `m` states each (the Fig. 4 graph
/// without building it): `first(j)` is the cost of entering layer 0 at
/// state `j`, `step(i, jp, j)` the cost of entering layer `i` at `j` from
/// layer `i − 1` at `jp`. Returns the minimum total cost and the state
/// chosen in each layer.
///
/// Every source-to-sink path crosses each layer exactly once and a node
/// carries no state beyond its (layer, level), so this forward pass gives
/// the same argmin as the Dijkstra run the paper names, with negative
/// costs allowed. Ties are settled explicitly: previous states are
/// scanned in ascending index keeping the first strict `<`, and among
/// equal final costs the lowest state wins. `first` is called `m` times
/// and `step` `(n − 1)·m²` times.
fn solve_layers(
    n: usize,
    m: usize,
    first: impl Fn(usize) -> f64,
    step: impl Fn(usize, usize, usize) -> f64,
) -> (f64, Vec<usize>) {
    assert!(n > 0 && m > 0, "empty lattice: {n} layers of {m} states");
    let mut dist: Vec<f64> = (0..m).map(first).collect();
    let mut next = vec![f64::INFINITY; m];
    // back[(i − 1)·m + j]: the best predecessor of state j in layer i.
    let mut back = vec![0usize; (n - 1) * m];
    let mut path = vec![0usize; n];
    for (i, row) in back.chunks_exact_mut(m).enumerate() {
        for (j, (best, from)) in next.iter_mut().zip(row.iter_mut()).enumerate() {
            *best = f64::INFINITY;
            for (jp, &d) in dist.iter().enumerate() {
                let cost = d + step(i + 1, jp, j);
                if cost < *best {
                    *best = cost;
                    *from = jp;
                }
            }
        }
        std::mem::swap(&mut dist, &mut next);
    }
    let mut total = f64::INFINITY;
    let mut state = 0;
    for (j, &d) in dist.iter().enumerate() {
        if d < total {
            total = d;
            state = j;
        }
    }
    let mut rows = back.chunks_exact(m).rev();
    for slot in path.iter_mut().rev() {
        *slot = state;
        if let Some(row) = rows.next() {
            state = row.get(state).copied().unwrap_or(0);
        }
    }
    (total, path)
}

/// Replays a precomputed plan through the simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedController {
    levels: Vec<LevelIndex>,
    label: String,
}

impl PlannedController {
    /// Wraps a plan for replay.
    #[must_use]
    pub fn new(plan: &OptimalPlan) -> Self {
        Self {
            levels: plan.levels.clone(),
            label: "optimal".to_string(),
        }
    }

    /// Wraps an arbitrary level sequence with a custom label.
    #[must_use]
    pub fn from_levels(levels: Vec<LevelIndex>, label: impl Into<String>) -> Self {
        Self {
            levels,
            label: label.into(),
        }
    }
}

impl BitrateController for PlannedController {
    fn select(&mut self, ctx: &DecisionContext<'_>) -> LevelIndex {
        self.levels
            .get(ctx.segment.value())
            .copied()
            // Defensive: a plan shorter than the session falls back to the
            // lowest level rather than panicking mid-replay.
            .unwrap_or_else(|| ctx.ladder.lowest_level())
    }

    fn name(&self) -> String {
        self.label.clone()
    }
}

#[cfg(test)]
// Tests assert exact fixture values; clippy::float_cmp guards library code.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use ecas_trace::synth::context::{Context, ContextSchedule};
    use ecas_trace::synth::SessionGenerator;
    use ecas_trace::videos::EvalTraceSpec;

    fn session(ctx: Context, secs: f64, seed: u64) -> SessionTrace {
        SessionGenerator::new(
            "opt",
            ContextSchedule::constant(ctx),
            Seconds::new(secs),
            seed,
        )
        .generate()
    }

    #[test]
    fn plan_covers_every_task() {
        let s = session(Context::Walking, 60.0, 1);
        let planner = OptimalPlanner::paper(BitrateLadder::evaluation());
        let plan = planner.plan(&s);
        assert_eq!(plan.levels.len(), 30);
    }

    #[test]
    fn optimal_beats_every_fixed_plan() {
        let s = session(Context::MovingVehicle, 60.0, 2);
        let ladder = BitrateLadder::evaluation();
        let planner = OptimalPlanner::paper(ladder.clone());
        let plan = planner.plan(&s);
        let n = plan.levels.len();
        for j in 0..ladder.len() {
            let fixed = vec![LevelIndex::new(j); n];
            let fixed_obj = planner.objective_of(&s, &fixed);
            assert!(
                plan.objective <= fixed_obj + 1e-9,
                "optimal {} worse than fixed level {j} ({fixed_obj})",
                plan.objective
            );
        }
    }

    #[test]
    fn objective_of_plan_matches_reported() {
        // One cost table serves both: the reported objective is exactly
        // the recomputed one, bit for bit.
        let s = session(Context::Walking, 40.0, 3);
        let planner = OptimalPlanner::paper(BitrateLadder::evaluation());
        let plan = planner.plan(&s);
        let recomputed = planner.objective_of(&s, &plan.levels);
        assert_eq!(plan.objective.to_bits(), recomputed.to_bits());
    }

    #[test]
    fn heavy_vibration_pushes_plan_down() {
        let quiet = session(Context::QuietRoom, 120.0, 4);
        let bus = session(Context::MovingVehicle, 120.0, 4);
        let planner = OptimalPlanner::paper(BitrateLadder::evaluation());
        let mean = |plan: &OptimalPlan| {
            plan.levels.iter().map(|l| l.value()).sum::<usize>() as f64 / plan.levels.len() as f64
        };
        let quiet_mean = mean(&planner.plan(&quiet));
        let bus_mean = mean(&planner.plan(&bus));
        assert!(
            bus_mean < quiet_mean,
            "bus plan ({bus_mean}) should sit below quiet plan ({quiet_mean})"
        );
    }

    #[test]
    fn eta_one_plans_all_lowest() {
        let s = session(Context::Walking, 40.0, 5);
        let ladder = BitrateLadder::evaluation();
        let planner = OptimalPlanner::with_eta(ladder.clone(), 1.0);
        let plan = planner.plan(&s);
        assert!(
            plan.levels.iter().all(|&l| l == ladder.lowest_level()),
            "pure-energy plan must pick the bottom everywhere"
        );
    }

    #[test]
    fn eta_zero_plans_high_in_quiet_room() {
        let s = session(Context::QuietRoom, 40.0, 6);
        let ladder = BitrateLadder::evaluation();
        let planner = OptimalPlanner::with_eta(ladder.clone(), 0.0);
        let plan = planner.plan(&s);
        let mean_level =
            plan.levels.iter().map(|l| l.value()).sum::<usize>() as f64 / plan.levels.len() as f64;
        assert!(
            mean_level > 10.0,
            "pure-QoE quiet plan sits high, got {mean_level}"
        );
    }

    #[test]
    fn plan_with_probe_reports_solver_work() {
        let s = session(Context::Walking, 40.0, 8);
        let ladder = BitrateLadder::evaluation();
        let m = ladder.len() as u64;
        let planner = OptimalPlanner::paper(ladder);
        let recorder = ecas_obs::MemoryRecorder::new();
        let plan = planner.plan_with_probe(&s, &recorder);
        let snapshot = recorder.metrics().snapshot();
        let n = plan.levels.len() as u64;
        assert_eq!(n, 20);
        assert_eq!(snapshot.counter(names::ABR_LABELS_EXPANDED), Some(n * m));
        assert_eq!(
            snapshot.counter(names::ABR_EDGES_RELAXED),
            Some(m + (n - 1) * m * m)
        );
        assert_eq!(snapshot.counter(names::ABR_LABELS_PRUNED), None);
        // The probe is observation-only: the plan itself is unchanged.
        assert_eq!(plan, planner.plan(&s));
    }

    #[test]
    fn planned_controller_replays_plan_through_simulator() {
        let spec = &EvalTraceSpec::table_v()[0];
        let s = spec.generate();
        let ladder = BitrateLadder::evaluation();
        let planner = OptimalPlanner::paper(ladder.clone());
        let plan = planner.plan(&s);
        let sim = ecas_sim::Simulator::paper(ladder);
        let result = sim.run(&s, &mut PlannedController::new(&plan));
        assert_eq!(result.controller, "optimal");
        for (task, &level) in result.tasks.iter().zip(&plan.levels) {
            assert_eq!(task.level, level);
        }
    }

    #[test]
    fn short_plan_falls_back_to_lowest() {
        let s = session(Context::Walking, 20.0, 7);
        let ladder = BitrateLadder::evaluation();
        let mut ctrl =
            PlannedController::from_levels(vec![ladder.highest_level(); 2], "short-plan");
        let sim = ecas_sim::Simulator::paper(ladder.clone());
        let result = sim.run(&s, &mut ctrl);
        assert_eq!(result.tasks.len(), 10);
        assert_eq!(result.tasks[5].level, ladder.lowest_level());
    }

    /// Enumerates all `m^n` plans, layer 0 as the least significant digit,
    /// keeping the first strict minimum: among exact ties this is the plan
    /// that is smallest compared from the last layer backwards — the plan
    /// [`solve_layers`]'s tie rule picks.
    fn brute_force(
        n: usize,
        m: usize,
        first: impl Fn(usize) -> f64,
        step: impl Fn(usize, usize, usize) -> f64,
    ) -> (f64, Vec<usize>) {
        let mut best = (f64::INFINITY, Vec::new());
        for code in 0..m.pow(n as u32) {
            let plan: Vec<usize> = (0..n).map(|i| code / m.pow(i as u32) % m).collect();
            let mut cost = first(plan[0]);
            for i in 1..n {
                cost += step(i, plan[i - 1], plan[i]);
            }
            if cost < best.0 {
                best = (cost, plan);
            }
        }
        best
    }

    /// Integer-valued pseudo-random costs in `[-500, 500)`: exact in f64,
    /// so ties and sums compare exactly.
    fn lattice_cost(a: usize, b: usize) -> f64 {
        ((a * 2_654_435_761 + b * 40_503) % 1000) as f64 - 500.0
    }

    #[test]
    fn solver_handles_negative_costs() {
        // Two layers, two states; the cheap first move (-0.5) is a trap.
        let first = [1.0, -0.5];
        let step = [[-2.0, 3.0], [0.1, 3.0]]; // step[jp][j]
        let f = |j: usize| first[j];
        let g = |_: usize, jp: usize, j: usize| step[jp][j];
        let (cost, path) = solve_layers(2, 2, f, g);
        assert_eq!(path, vec![0, 0]);
        assert_eq!(cost, -1.0);
        assert_eq!((cost, path), brute_force(2, 2, f, g));
    }

    #[test]
    fn solver_matches_brute_force_on_random_lattices() {
        for (n, m) in [(1, 5), (3, 4), (6, 3), (8, 5)] {
            let f = |j: usize| lattice_cost(7, j);
            let g = |i: usize, jp: usize, j: usize| lattice_cost(i * m + jp, j);
            assert_eq!(solve_layers(n, m, f, g), brute_force(n, m, f, g), "{n}x{m}");
        }
    }

    #[test]
    fn solver_matches_a_backward_recursion_on_a_20x5_lattice() {
        // A Fig. 4-sized lattice: 5^20 plans are too many to enumerate, so
        // the reference is Bellman's recursion run from the sink backwards.
        let (n, m) = (20, 5);
        let f = |j: usize| lattice_cost(3, j);
        let g = |i: usize, jp: usize, j: usize| lattice_cost(i * m + jp, j);
        let mut suffix = vec![0.0; m]; // best cost of layers i+1.. from state j
        for i in (1..n).rev() {
            suffix = (0..m)
                .map(|jp| {
                    (0..m)
                        .map(|j| g(i, jp, j) + suffix[j])
                        .fold(f64::INFINITY, f64::min)
                })
                .collect();
        }
        let expected = (0..m)
            .map(|j| f(j) + suffix[j])
            .fold(f64::INFINITY, f64::min);
        let (cost, path) = solve_layers(n, m, f, g);
        assert_eq!(cost, expected);
        let mut walked = f(path[0]);
        for i in 1..n {
            walked += g(i, path[i - 1], path[i]);
        }
        assert_eq!(walked, cost);
    }

    #[test]
    fn solver_tie_rule_prefers_low_levels_from_the_last_layer_back() {
        // Every plan costs zero: the all-lowest plan wins.
        let (cost, path) = solve_layers(4, 3, |_| 0.0, |_, _, _| 0.0);
        assert_eq!((cost, path), (0.0, vec![0; 4]));
        // Plans [1, 0] and [0, 1] tie at 1.0 (everything else costs more):
        // the lower final level wins, so [1, 0].
        let f = |j: usize| [0.0, 1.0][j];
        let g = |_: usize, jp: usize, j: usize| if jp == j { 5.0 } else { [0.0, 1.0][j] };
        assert_eq!(solve_layers(2, 2, f, g), (1.0, vec![1, 0]));
        assert_eq!(brute_force(2, 2, f, g), (1.0, vec![1, 0]));
        // Exact ties on a larger lattice: costs drawn from {0, 1} tie
        // massively, and the solver still picks brute force's plan.
        let f = |j: usize| (j % 2) as f64;
        let g = |i: usize, jp: usize, j: usize| ((i + jp * 3 + j * 5) % 2) as f64;
        assert_eq!(solve_layers(6, 4, f, g), brute_force(6, 4, f, g));
    }

    #[test]
    fn solver_evaluates_each_state_and_transition_once() {
        let (n, m) = (7, 4);
        let firsts = std::cell::Cell::new(0);
        let steps = std::cell::Cell::new(0);
        let _ = solve_layers(
            n,
            m,
            |j| {
                firsts.set(firsts.get() + 1);
                j as f64
            },
            |_, jp, j| {
                steps.set(steps.get() + 1);
                (jp + j) as f64
            },
        );
        assert_eq!(firsts.get(), m);
        assert_eq!(steps.get(), (n - 1) * m * m);
    }
}
