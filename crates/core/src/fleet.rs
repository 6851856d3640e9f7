//! Fleet-scale population simulation with streaming aggregation.
//!
//! The paper's evaluation runs a handful of Table V sessions; the
//! ROADMAP north star is a deployment serving millions of users. This
//! module closes that gap without ever holding a fleet in memory:
//!
//! 1. a [`PopulationSpec`](ecas_trace::population::PopulationSpec)
//!    describes the fleet intensively (diurnal arrivals, context /
//!    battery / signal mix) — user `i` is a pure function of the fleet
//!    seed, so no per-user state exists up front;
//! 2. [`FleetEngine::run`] is a map-reduce over user indices: each pool
//!    worker takes every `W`-th user, synthesizes that one trace, runs
//!    it through [`SweepEngine`]'s per-cell step (cache lookup, compute,
//!    store), absorbs the result into its own [`FleetReducer`] and drops
//!    the trace; the worker reducers are merged at the end;
//! 3. the reducer keeps only aggregates: counters, exact sums, fixed-bin
//!    QoE and energy histograms ([`FixedHistogram`]), per-class
//!    [`ClassReport`] slices (context / battery / signal) and an
//!    arrivals-by-hour profile. Peak memory is one trace per worker,
//!    independent of fleet size.
//!
//! **Determinism.** Every sum in the reducer is exact (Shewchuk's
//! non-overlapping partials, finalized with correct rounding), and
//! counters and histograms are integers, so [`FleetReducer::merge`] is
//! exact too. The report therefore does not depend on the order users
//! are absorbed in or on how they are split into shards: it is
//! byte-identical across `Sequential`, `Parallel { jobs }` and cached
//! execution. CI asserts it.
//!
//! Percentile tails use the workspace's shared
//! [`nearest_rank`](ecas_types::float::nearest_rank) convention over
//! the histogram's cumulative counts, reported at bin midpoints.

use std::sync::Arc;

use ecas_obs::{names, perf, MetricsRegistry};
use ecas_sim::result::SessionResult;
use ecas_trace::population::{BatteryState, FleetContext, PopulationSpec, SignalTier, UserSpec};
use ecas_types::float::nearest_rank;
use ecas_types::units::MegaBytes;
use serde::{Deserialize, Serialize};

use crate::approach::Approach;
use crate::pool;
use crate::runner::ExperimentRunner;
use crate::sweep::{CacheStats, ExecPolicy, SweepEngine};

/// QoE histogram range: Eq. (1) scores live in the MOS band `[0, 5]`.
const QOE_LO: f64 = 0.0;
/// Upper edge of the QoE histogram.
const QOE_HI: f64 = 5.0;
/// QoE histogram resolution (0.1-MOS bins).
const QOE_BINS: usize = 50;

/// Energy histogram range: a 10-minute 1080p session on a poor link
/// stays well under 3200 J with the Table VI power model; anything
/// above clamps into the top bin.
const ENERGY_LO: f64 = 0.0;
/// Upper edge of the energy histogram (joules).
const ENERGY_HI: f64 = 3200.0;
/// Energy histogram resolution (50-joule bins).
const ENERGY_BINS: usize = 64;

/// A fixed-range, fixed-width histogram with saturating edge bins.
///
/// The bounded-memory backbone of the fleet reducer: recording is O(1),
/// merging is element-wise `u64` addition (exact), and percentile tails
/// come from the cumulative counts via the shared `nearest_rank`
/// convention, reported at bin midpoints.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FixedHistogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    /// NaN samples, counted apart from the bins so they can be reported
    /// explicitly instead of silently polluting the lowest bin.
    #[serde(default)]
    nan: u64,
}

impl FixedHistogram {
    /// Creates a histogram over `[lo, hi)` with `bins` equal bins.
    ///
    /// # Panics
    ///
    /// Panics if `bins` is zero or `hi <= lo`.
    #[must_use]
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(hi > lo, "histogram range must be non-empty");
        Self {
            lo,
            hi,
            counts: vec![0; bins],
            nan: 0,
        }
    }

    fn bin_width(&self) -> f64 {
        (self.hi - self.lo) / self.counts.len() as f64
    }

    /// Records one value; out-of-range values clamp into the edge bins.
    /// NaN is counted in the explicit [`Self::nan_count`] tally — not a
    /// bin — so it still contributes to [`Self::total`] (keeping the
    /// `total == users` invariant) without invisibly skewing the lowest
    /// bin's percentile mass.
    pub fn record(&mut self, value: f64) {
        if value.is_nan() {
            self.nan += 1;
            return;
        }
        let raw = (value - self.lo) / self.bin_width();
        let idx = if raw < 0.0 {
            0
        } else {
            (raw as usize).min(self.counts.len() - 1)
        };
        if let Some(slot) = self.counts.get_mut(idx) {
            *slot += 1;
        }
    }

    /// Total recorded count, NaN samples included.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.finite() + self.nan
    }

    /// Finite samples actually sitting in bins.
    fn finite(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// NaN samples recorded (excluded from every bin and percentile).
    #[must_use]
    pub fn nan_count(&self) -> u64 {
        self.nan
    }

    /// Adds `other`'s counts into `self` (exact).
    ///
    /// # Panics
    ///
    /// Panics if the histograms have different shapes.
    pub fn merge(&mut self, other: &FixedHistogram) {
        assert!(
            self.counts.len() == other.counts.len()
                && self.lo.to_bits() == other.lo.to_bits()
                && self.hi.to_bits() == other.hi.to_bits(),
            "cannot merge differently-shaped histograms"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.nan += other.nan;
    }

    /// The `p`-quantile (0 ≤ p ≤ 1) of the **finite** samples under the
    /// workspace nearest-rank convention, reported as the midpoint of
    /// the bin holding the ranked sample. `None` when no finite sample
    /// was recorded — and `None` (never a silently saturated rank) in
    /// the degenerate case of a finite count that does not fit `usize`
    /// on a 32-bit target.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]` (via `nearest_rank`).
    #[must_use]
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let finite = usize::try_from(self.finite()).ok()?;
        let rank = nearest_rank(finite, p)? as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen > rank {
                return Some(self.lo + (i as f64 + 0.5) * self.bin_width());
            }
        }
        None
    }
}

/// An exact running sum of `f64`s: Shewchuk's non-overlapping partials
/// ("Adaptive Precision Floating-Point Arithmetic", 1997 — the
/// `math.fsum` algorithm). Every addition is error-free, so the total,
/// and its correctly rounded [`ExactSum::value`], is the same whatever
/// order the addends arrive in and however partial sums are merged.
///
/// Non-finite addends are summed apart, naively, so a NaN or ±inf gives
/// exactly the result plain summation would. A finite total beyond
/// `f64::MAX` saturates to ±inf.
#[derive(Debug, Clone, Default)]
struct ExactSum {
    /// Non-overlapping partials in increasing magnitude; their exact sum
    /// is the total of the finite addends.
    partials: Vec<f64>,
    /// Plain sum of the non-finite addends: `0.0` while there are none,
    /// then ±inf or NaN for good.
    nonfinite: f64,
}

impl ExactSum {
    fn add(&mut self, value: f64) {
        if !value.is_finite() {
            self.nonfinite += value;
            return;
        }
        let mut x = value;
        self.partials.retain_mut(|p| {
            let (big, small) = if x.abs() < p.abs() { (*p, x) } else { (x, *p) };
            let hi = big + small;
            let lo = small - (hi - big);
            x = hi;
            *p = lo;
            lo.abs() > 0.0
        });
        if !x.is_finite() {
            // Overflow: the partials no longer mean anything.
            self.nonfinite += x;
            self.partials.clear();
        } else if x.abs() > 0.0 {
            // Zero is left out, so an empty sum (or one of -0.0 alone)
            // reads +0.0, as naive summation from 0.0 does.
            self.partials.push(x);
        }
    }

    fn merge(&mut self, other: &ExactSum) {
        for &p in &other.partials {
            self.add(p);
        }
        self.nonfinite += other.nonfinite;
    }

    /// The total, correctly rounded (round half to even).
    fn value(&self) -> f64 {
        if !self.nonfinite.is_finite() {
            return self.nonfinite;
        }
        let mut rest = self.partials.iter().rev().copied();
        let Some(mut hi) = rest.next() else {
            return 0.0;
        };
        // Add partials from the largest down until one is absorbed
        // inexactly; `lo` is what that addition rounded away.
        let mut lo = 0.0;
        for y in rest.by_ref() {
            let x = hi;
            hi = x + y;
            lo = y - (hi - x);
            if lo.abs() > 0.0 {
                break;
            }
        }
        // Half-way case: if the partials below push the same way as
        // `lo`, the exact total lies past the tie and rounds away from
        // `hi`.
        if let Some(next) = rest.next() {
            if (lo < 0.0 && next < 0.0) || (lo > 0.0 && next > 0.0) {
                let y = lo * 2.0;
                let x = hi + y;
                if (x - hi).to_bits() == y.to_bits() {
                    hi = x;
                }
            }
        }
        hi
    }
}

impl PartialEq for ExactSum {
    /// Two sums are equal when their totals are (bit for bit), however
    /// their partials happen to be split.
    fn eq(&self, other: &Self) -> bool {
        self.value().to_bits() == other.value().to_bits()
    }
}

/// Sub-aggregate for one population class (a context, battery state or
/// signal tier): enough to report the class share and its mean QoE and
/// energy without per-session state.
#[derive(Debug, Clone, Default, PartialEq)]
struct ClassAgg {
    count: u64,
    qoe_sum: ExactSum,
    energy_sum: ExactSum,
}

impl ClassAgg {
    fn absorb(&mut self, qoe: f64, energy: f64) {
        self.count += 1;
        self.qoe_sum.add(qoe);
        self.energy_sum.add(energy);
    }

    fn merge(&mut self, other: &ClassAgg) {
        self.count += other.count;
        self.qoe_sum.merge(&other.qoe_sum);
        self.energy_sum.merge(&other.energy_sum);
    }

    fn report(&self, class: &str, fleet: u64) -> ClassReport {
        let n = self.count as f64;
        ClassReport {
            class: class.to_string(),
            share: if fleet == 0 {
                0.0
            } else {
                self.count as f64 / fleet as f64
            },
            mean_qoe: if self.count == 0 {
                0.0
            } else {
                self.qoe_sum.value() / n
            },
            mean_energy_j: if self.count == 0 {
                0.0
            } else {
                self.energy_sum.value() / n
            },
        }
    }
}

/// The streaming fleet aggregator: absorbs one `(user, result)` pair at
/// a time and keeps only O(1) state — counters, exact sums, fixed-bin
/// histograms, per-class sub-aggregates and the arrivals profile.
///
/// Reducers built over disjoint sets of users combine exactly with
/// [`FleetReducer::merge`]: the report does not depend on how the users
/// were split or in which order anything was absorbed or merged.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReducer {
    users: u64,
    segments: u64,
    switches: u64,
    retries: u64,
    aborts: u64,
    degraded: u64,
    stalled_sessions: u64,
    qoe_sum: ExactSum,
    energy_sum: ExactSum,
    screen_sum: ExactSum,
    decode_sum: ExactSum,
    radio_sum: ExactSum,
    tail_sum: ExactSum,
    rebuffer_sum: ExactSum,
    wall_sum: ExactSum,
    played_sum: ExactSum,
    downloaded_sum: ExactSum,
    arrivals: [u64; 24],
    by_context: [ClassAgg; 4],
    by_battery: [ClassAgg; 3],
    by_signal: [ClassAgg; 3],
    qoe_hist: FixedHistogram,
    energy_hist: FixedHistogram,
}

impl Default for FleetReducer {
    fn default() -> Self {
        Self::new()
    }
}

impl FleetReducer {
    /// An empty reducer.
    #[must_use]
    pub fn new() -> Self {
        Self {
            users: 0,
            segments: 0,
            switches: 0,
            retries: 0,
            aborts: 0,
            degraded: 0,
            stalled_sessions: 0,
            qoe_sum: ExactSum::default(),
            energy_sum: ExactSum::default(),
            screen_sum: ExactSum::default(),
            decode_sum: ExactSum::default(),
            radio_sum: ExactSum::default(),
            tail_sum: ExactSum::default(),
            rebuffer_sum: ExactSum::default(),
            wall_sum: ExactSum::default(),
            played_sum: ExactSum::default(),
            downloaded_sum: ExactSum::default(),
            arrivals: [0; 24],
            by_context: Default::default(),
            by_battery: Default::default(),
            by_signal: Default::default(),
            qoe_hist: FixedHistogram::new(QOE_LO, QOE_HI, QOE_BINS),
            energy_hist: FixedHistogram::new(ENERGY_LO, ENERGY_HI, ENERGY_BINS),
        }
    }

    /// Number of sessions absorbed so far.
    #[must_use]
    pub fn users(&self) -> u64 {
        self.users
    }

    /// Folds one simulated session into the aggregate.
    pub fn absorb(&mut self, user: &UserSpec, result: &SessionResult) {
        let qoe = result.mean_qoe.value();
        let energy = result.total_energy().value();

        self.users += 1;
        self.segments += result.tasks.len() as u64;
        self.switches += result.switches as u64;
        self.retries += result.retries as u64;
        self.aborts += result.aborts as u64;
        self.degraded += result.degraded_segments as u64;
        if result.total_rebuffer.value() > 0.0 {
            self.stalled_sessions += 1;
        }
        self.qoe_sum.add(qoe);
        self.energy_sum.add(energy);
        self.screen_sum.add(result.energy.screen.value());
        self.decode_sum.add(result.energy.decode.value());
        self.radio_sum.add(result.energy.radio.value());
        self.tail_sum.add(result.energy.tail.value());
        self.rebuffer_sum.add(result.total_rebuffer.value());
        self.wall_sum.add(result.wall_time.value());
        self.played_sum.add(result.played.value());
        self.downloaded_sum.add(result.downloaded.value());

        let hour = (user.hour as usize).min(23);
        if let Some(slot) = self.arrivals.get_mut(hour) {
            *slot += 1;
        }
        let ctx = match user.context {
            FleetContext::Static => 0,
            FleetContext::Walking => 1,
            FleetContext::Vehicle => 2,
            FleetContext::Commute => 3,
        };
        if let Some(agg) = self.by_context.get_mut(ctx) {
            agg.absorb(qoe, energy);
        }
        let bat = match user.battery {
            BatteryState::Charged => 0,
            BatteryState::Normal => 1,
            BatteryState::Low => 2,
        };
        if let Some(agg) = self.by_battery.get_mut(bat) {
            agg.absorb(qoe, energy);
        }
        let sig = match user.signal {
            SignalTier::Good => 0,
            SignalTier::Fair => 1,
            SignalTier::Poor => 2,
        };
        if let Some(agg) = self.by_signal.get_mut(sig) {
            agg.absorb(qoe, energy);
        }
        self.qoe_hist.record(qoe);
        self.energy_hist.record(energy);
    }

    /// Combines `other` (built over a disjoint set of users) into
    /// `self`, exactly: counters and histograms add as integers and every
    /// sum stays exact.
    pub fn merge(&mut self, other: &FleetReducer) {
        self.users += other.users;
        self.segments += other.segments;
        self.switches += other.switches;
        self.retries += other.retries;
        self.aborts += other.aborts;
        self.degraded += other.degraded;
        self.stalled_sessions += other.stalled_sessions;
        self.qoe_sum.merge(&other.qoe_sum);
        self.energy_sum.merge(&other.energy_sum);
        self.screen_sum.merge(&other.screen_sum);
        self.decode_sum.merge(&other.decode_sum);
        self.radio_sum.merge(&other.radio_sum);
        self.tail_sum.merge(&other.tail_sum);
        self.rebuffer_sum.merge(&other.rebuffer_sum);
        self.wall_sum.merge(&other.wall_sum);
        self.played_sum.merge(&other.played_sum);
        self.downloaded_sum.merge(&other.downloaded_sum);
        for (a, b) in self.arrivals.iter_mut().zip(&other.arrivals) {
            *a += b;
        }
        for (a, b) in self.by_context.iter_mut().zip(&other.by_context) {
            a.merge(b);
        }
        for (a, b) in self.by_battery.iter_mut().zip(&other.by_battery) {
            a.merge(b);
        }
        for (a, b) in self.by_signal.iter_mut().zip(&other.by_signal) {
            a.merge(b);
        }
        self.qoe_hist.merge(&other.qoe_hist);
        self.energy_hist.merge(&other.energy_hist);
    }

    /// Freezes the aggregate into a serializable report.
    #[must_use]
    pub fn finalize(&self) -> FleetReport {
        let n = self.users as f64;
        let mean = |sum: f64| if self.users == 0 { 0.0 } else { sum / n };
        let tail = |h: &FixedHistogram| Tail {
            p50: h.percentile(0.50).unwrap_or(0.0),
            p90: h.percentile(0.90).unwrap_or(0.0),
            p99: h.percentile(0.99).unwrap_or(0.0),
        };
        let energy = self.energy_sum.value();
        let downloaded = self.downloaded_sum.value();
        let wall = self.wall_sum.value();
        FleetReport {
            users: self.users,
            segments: self.segments,
            switches: self.switches,
            retries: self.retries,
            aborts: self.aborts,
            degraded_segments: self.degraded,
            stalled_sessions: self.stalled_sessions,
            mean_qoe: mean(self.qoe_sum.value()),
            mean_energy_j: mean(energy),
            energy_per_gb_j: if downloaded > 0.0 {
                energy / (downloaded / 1000.0)
            } else {
                0.0
            },
            energy_screen_j: self.screen_sum.value(),
            energy_decode_j: self.decode_sum.value(),
            energy_radio_j: self.radio_sum.value(),
            energy_tail_j: self.tail_sum.value(),
            rebuffer_ratio: if wall > 0.0 {
                self.rebuffer_sum.value() / wall
            } else {
                0.0
            },
            stalled_share: mean(self.stalled_sessions as f64),
            degraded_share: if self.segments == 0 {
                0.0
            } else {
                self.degraded as f64 / self.segments as f64
            },
            played_s: self.played_sum.value(),
            downloaded_mb: MegaBytes::new(downloaded),
            qoe_tail: tail(&self.qoe_hist),
            energy_tail: tail(&self.energy_hist),
            qoe_nan: self.qoe_hist.nan_count(),
            energy_nan: self.energy_hist.nan_count(),
            arrivals_by_hour: self.arrivals.to_vec(),
            by_context: FleetContext::all()
                .iter()
                .zip(&self.by_context)
                .map(|(c, agg)| agg.report(&c.to_string(), self.users))
                .collect(),
            by_battery: BatteryState::all()
                .iter()
                .zip(&self.by_battery)
                .map(|(b, agg)| agg.report(&b.to_string(), self.users))
                .collect(),
            by_signal: SignalTier::all()
                .iter()
                .zip(&self.by_signal)
                .map(|(s, agg)| agg.report(&s.to_string(), self.users))
                .collect(),
        }
    }
}

/// Percentile tails of a fleet distribution (nearest-rank-from-below at
/// histogram-bin resolution).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Tail {
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
}

/// Per-class slice of the fleet (one context, battery state or signal
/// tier).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassReport {
    /// Class label (e.g. `"commute"`, `"low"`, `"poor"`).
    pub class: String,
    /// Fraction of the fleet in this class.
    pub share: f64,
    /// Mean session QoE of the class.
    pub mean_qoe: f64,
    /// Mean session energy of the class (joules).
    pub mean_energy_j: f64,
}

/// The aggregate outcome of a fleet run: everything the deployment
/// claim needs, nothing per-session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// Sessions simulated.
    pub users: u64,
    /// Segments downloaded across the fleet.
    pub segments: u64,
    /// Bitrate switches across the fleet.
    pub switches: u64,
    /// Faulted-download retries across the fleet.
    pub retries: u64,
    /// Aborted download attempts across the fleet.
    pub aborts: u64,
    /// Segments served degraded after exhausting retries.
    pub degraded_segments: u64,
    /// Sessions that stalled at least once.
    pub stalled_sessions: u64,
    /// Fleet mean of per-session mean QoE.
    pub mean_qoe: f64,
    /// Fleet mean session energy (joules).
    pub mean_energy_j: f64,
    /// Total energy per gigabyte delivered (J/GB).
    pub energy_per_gb_j: f64,
    /// Total screen energy (joules).
    pub energy_screen_j: f64,
    /// Total decode energy (joules).
    pub energy_decode_j: f64,
    /// Total radio transfer energy (joules).
    pub energy_radio_j: f64,
    /// Total radio tail energy (joules).
    pub energy_tail_j: f64,
    /// Fleet stall time over fleet wall time.
    pub rebuffer_ratio: f64,
    /// Fraction of sessions that stalled at least once.
    pub stalled_share: f64,
    /// Fraction of segments served degraded.
    pub degraded_share: f64,
    /// Seconds of video played across the fleet.
    pub played_s: f64,
    /// Megabytes delivered across the fleet.
    pub downloaded_mb: MegaBytes,
    /// QoE distribution tails.
    pub qoe_tail: Tail,
    /// Session-energy distribution tails (joules).
    pub energy_tail: Tail,
    /// Sessions whose QoE came back NaN (excluded from the QoE tails;
    /// nonzero means a model bug upstream, so the report says so).
    #[serde(default)]
    pub qoe_nan: u64,
    /// Sessions whose energy came back NaN (excluded from the energy
    /// tails).
    #[serde(default)]
    pub energy_nan: u64,
    /// Session arrivals per local hour (24 entries).
    pub arrivals_by_hour: Vec<u64>,
    /// Slices by watching context.
    pub by_context: Vec<ClassReport>,
    /// Slices by battery state.
    pub by_battery: Vec<ClassReport>,
    /// Slices by signal tier.
    pub by_signal: Vec<ClassReport>,
}

impl FleetReport {
    /// Renders the report as stable plain text. Contains no timing,
    /// policy or host information, so two runs of the same fleet under
    /// any execution policy print byte-identical text — CI diffs it.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        // ecas-lint: allow(panic-safety, reason = "writing to a String cannot fail")
        let mut w = |line: String| writeln!(out, "{line}").expect("String write cannot fail");
        w(format!("fleet users={}", self.users));
        w(format!(
            "sessions segments={} switches={} retries={} aborts={} degraded={} stalled={}",
            self.segments,
            self.switches,
            self.retries,
            self.aborts,
            self.degraded_segments,
            self.stalled_sessions
        ));
        w(format!(
            "qoe mean={:.6} p50={:.3} p90={:.3} p99={:.3} nan={}",
            self.mean_qoe, self.qoe_tail.p50, self.qoe_tail.p90, self.qoe_tail.p99, self.qoe_nan
        ));
        w(format!(
            "energy mean_j={:.6} p50_j={:.1} p90_j={:.1} p99_j={:.1} per_gb_j={:.3} nan={}",
            self.mean_energy_j,
            self.energy_tail.p50,
            self.energy_tail.p90,
            self.energy_tail.p99,
            self.energy_per_gb_j,
            self.energy_nan
        ));
        w(format!(
            "energy_split screen_j={:.3} decode_j={:.3} radio_j={:.3} tail_j={:.3}",
            self.energy_screen_j, self.energy_decode_j, self.energy_radio_j, self.energy_tail_j
        ));
        w(format!(
            "playback rebuffer_ratio={:.6} stalled_share={:.6} degraded_share={:.6} played_s={:.1} downloaded_mb={:.3}",
            self.rebuffer_ratio,
            self.stalled_share,
            self.degraded_share,
            self.played_s,
            self.downloaded_mb.value()
        ));
        let hours: Vec<String> = self.arrivals_by_hour.iter().map(u64::to_string).collect();
        w(format!("arrivals_by_hour {}", hours.join(",")));
        let groups = [
            ("context", &self.by_context),
            ("battery", &self.by_battery),
            ("signal", &self.by_signal),
        ];
        for (title, classes) in groups {
            for c in classes.iter() {
                w(format!(
                    "{title}/{} share={:.6} mean_qoe={:.6} mean_energy_j={:.6}",
                    c.class, c.share, c.mean_qoe, c.mean_energy_j
                ));
            }
        }
        out
    }
}

/// The fleet population engine: a map-reduce of a [`PopulationSpec`]'s
/// user indices over the shared worker pool, one trace per worker at a
/// time.
///
/// # Examples
///
/// ```
/// use ecas_core::fleet::FleetEngine;
/// use ecas_core::sweep::ExecPolicy;
/// use ecas_core::trace::population::PopulationSpec;
/// use ecas_core::types::units::Seconds;
///
/// let spec = PopulationSpec::new(8, 7).mean_duration(Seconds::new(20.0));
/// let engine = FleetEngine::paper();
/// let seq = engine.run(&spec, &ExecPolicy::Sequential);
/// let par = engine.run(&spec, &ExecPolicy::Parallel { jobs: 3 });
/// assert_eq!(seq.users, 8);
/// // The aggregate is execution-policy independent, byte for byte.
/// assert_eq!(seq, par);
/// assert_eq!(seq.render(), par.render());
/// ```
pub struct FleetEngine {
    sweep: SweepEngine,
    approach: Approach,
    registry: Option<Arc<MetricsRegistry>>,
}

impl FleetEngine {
    /// A fleet batch size for harnesses that synthesize users in
    /// batches of their own. The engine does not use it: it synthesizes
    /// one user at a time per worker.
    pub const DEFAULT_BATCH: usize = 2048;

    /// Creates an engine around a configured runner, evaluating the
    /// paper's controller ([`Approach::Ours`]).
    #[must_use]
    pub fn new(runner: ExperimentRunner) -> Self {
        Self {
            sweep: SweepEngine::new(runner),
            approach: Approach::Ours,
            registry: None,
        }
    }

    /// An engine over the paper's simulator configuration.
    #[must_use]
    pub fn paper() -> Self {
        Self::new(ExperimentRunner::paper())
    }

    /// Evaluates `approach` instead of the default [`Approach::Ours`].
    #[must_use]
    pub fn approach(mut self, approach: Approach) -> Self {
        self.approach = approach;
        self
    }

    /// Mirrors fleet progress (`fleet/*` names) and the sweep's cache
    /// counters into `registry`.
    #[must_use]
    pub fn with_registry(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.sweep = self.sweep.with_registry(Arc::clone(&registry));
        self.registry = Some(registry);
        self
    }

    /// Cache activity of the underlying sweep engine (all zeros unless
    /// the policy caches).
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.sweep.stats()
    }

    /// Runs the whole fleet under `policy` and returns the aggregate.
    ///
    /// The policy's width `W` (see [`ExecPolicy::width`]) is the number
    /// of shards: shard `w` takes users `w, w + W, …`, and for each one
    /// synthesizes the trace, runs its cell (through the cache when the
    /// policy caches), absorbs the result into the shard's reducer and
    /// drops the trace. The shard reducers merge exactly, so the report
    /// (and its [`FleetReport::render`] text) is byte-identical for every
    /// policy. Memory: one trace per worker, never the fleet.
    #[must_use]
    pub fn run(&self, spec: &PopulationSpec, policy: &ExecPolicy) -> FleetReport {
        let watch = self.registry.as_ref().map(|_| perf::Stopwatch::start());
        let users = spec.users();
        let width =
            pool::resolve_workers(policy.width(), usize::try_from(users).unwrap_or(usize::MAX));
        let cache = self.sweep.open_cache(policy);
        let shards: Vec<u64> = (0..width as u64).collect();
        let reducers = pool::run_ordered(&shards, width, |&shard| {
            let mut reducer = FleetReducer::new();
            for i in (shard..users).step_by(width) {
                let user = spec.user(i);
                let trace = user.synthesize();
                let result = self.sweep.run_cell(&trace, self.approach, cache);
                reducer.absorb(&user, &result);
                if let Some(registry) = &self.registry {
                    registry.add(names::FLEET_USERS, 1);
                }
            }
            reducer
        });
        let mut fleet = FleetReducer::new();
        for reducer in &reducers {
            fleet.merge(reducer);
        }
        if let (Some(watch), Some(registry)) = (watch, &self.registry) {
            registry.record_span(names::FLEET_EXECUTE_SPAN, watch.elapsed_nanos());
        }
        fleet.finalize()
    }
}

#[cfg(test)]
// Tests assert exact aggregate equality on purpose; clippy::float_cmp
// guards library code.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use ecas_types::units::Seconds;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn tiny_spec(users: u64) -> PopulationSpec {
        PopulationSpec::new(users, 0xF1EE7).mean_duration(Seconds::new(20.0))
    }

    #[test]
    fn histogram_percentiles_follow_nearest_rank() {
        let mut h = FixedHistogram::new(0.0, 10.0, 10);
        for v in [1.0, 2.0, 3.0, 4.0] {
            h.record(v);
        }
        // nearest_rank(4, 0.25) = floor(0.25 * 3) = 0 → the 1.0 sample,
        // reported at its bin midpoint 1.5.
        assert_eq!(h.percentile(0.25), Some(1.5));
        assert_eq!(h.percentile(1.0), Some(4.5));
        assert_eq!(FixedHistogram::new(0.0, 1.0, 4).percentile(0.5), None);
    }

    #[test]
    fn histogram_clamps_out_of_range() {
        let mut h = FixedHistogram::new(0.0, 10.0, 10);
        h.record(-5.0);
        h.record(1e9);
        h.record(f64::NAN);
        assert_eq!(h.total(), 3);
        assert_eq!(h.percentile(1.0), Some(9.5));
    }

    #[test]
    fn histogram_counts_nan_explicitly_not_in_a_bin() {
        let mut h = FixedHistogram::new(0.0, 10.0, 10);
        h.record(f64::NAN);
        h.record(f64::NAN);
        h.record(9.0);
        assert_eq!(h.nan_count(), 2);
        assert_eq!(h.total(), 3, "NaN still counts toward the total");
        // Percentiles run over the finite sample alone: the single 9.0
        // is every quantile. Under the old lowest-bin folding, p50 of
        // this input came out as 0.5 — a silent lie.
        assert_eq!(h.percentile(0.5), Some(9.5));
        assert_eq!(h.percentile(0.0), Some(9.5));

        let mut only_nan = FixedHistogram::new(0.0, 1.0, 4);
        only_nan.record(f64::NAN);
        assert_eq!(only_nan.percentile(0.5), None, "no finite sample, no rank");

        // Merge carries the tally; old serialized shapes (no `nan`
        // field) still deserialize.
        let mut other = FixedHistogram::new(0.0, 10.0, 10);
        other.record(f64::NAN);
        h.merge(&other);
        assert_eq!(h.nan_count(), 3);
        let legacy: FixedHistogram =
            serde_json::from_str(r#"{"lo":0.0,"hi":10.0,"counts":[1,0,0,0,0,0,0,0,0,0]}"#)
                .unwrap();
        assert_eq!(legacy.nan_count(), 0);
        assert_eq!(legacy.total(), 1);
    }

    #[test]
    fn nan_sessions_surface_in_the_fleet_report() {
        // The unit types reject NaN at construction, so a healthy run
        // reports zero — and the render must say so explicitly rather
        // than hide the tally.
        let spec = tiny_spec(3);
        let mut report = FleetEngine::paper().run(&spec, &ExecPolicy::Sequential);
        assert_eq!(report.qoe_nan, 0);
        assert_eq!(report.energy_nan, 0);
        assert!(report.render().contains("p99=") && report.render().contains(" nan=0"));
        // If a NaN ever slips through (a model bug), the report calls
        // it out on the affected line.
        report.qoe_nan = 1;
        let text = report.render();
        let qoe_line = text.lines().find(|l| l.starts_with("qoe ")).unwrap();
        assert!(qoe_line.ends_with("nan=1"), "{qoe_line}");
        let energy_line = text.lines().find(|l| l.starts_with("energy ")).unwrap();
        assert!(energy_line.ends_with("nan=0"), "{energy_line}");
    }

    fn exact(values: &[f64]) -> ExactSum {
        let mut sum = ExactSum::default();
        for &v in values {
            sum.add(v);
        }
        sum
    }

    #[test]
    fn exact_sum_is_correctly_rounded() {
        assert_eq!(exact(&[]).value(), 0.0);
        assert_eq!(
            exact(&[0.1; 10]).value(),
            1.0,
            "naive summation gives 0.9999999999999999"
        );
        assert_eq!(exact(&[1e100, 1.0, -1e100]).value(), 1.0);
        assert_eq!(exact(&[1.0, -1.0]).value().to_bits(), 0.0f64.to_bits());
        // 2^53 + 1 + 2^-60 lies just past the tie between 2^53 and
        // 2^53 + 2, so it rounds up; without the 2^-60 it rounds to even.
        let big = 9_007_199_254_740_992.0;
        assert_eq!(exact(&[big, 1.0, 2f64.powi(-60)]).value(), big + 2.0);
        assert_eq!(exact(&[big, 1.0]).value(), big);
        assert_eq!(exact(&[big, 1.0, -(2f64.powi(-60))]).value(), big);
    }

    #[test]
    fn exact_sum_keeps_naive_nonfinite_results() {
        let nan = exact(&[1.0, f64::NAN, 2.0]).value();
        assert!(nan.is_nan());
        assert_eq!(exact(&[1.0, f64::INFINITY, -5.0]).value(), f64::INFINITY);
        assert_eq!(exact(&[f64::NEG_INFINITY, 3.0]).value(), f64::NEG_INFINITY);
        let mixed = exact(&[f64::INFINITY, 1.0, f64::NEG_INFINITY]);
        assert!(mixed.value().is_nan());
        // Merging carries the non-finite part across.
        let mut left = exact(&[1.0, f64::INFINITY]);
        left.merge(&exact(&[2.0]));
        assert_eq!(left.value(), f64::INFINITY);
        let mut right = exact(&[2.0]);
        right.merge(&exact(&[f64::NAN]));
        assert!(right.value().is_nan());
        // A finite total beyond f64::MAX saturates.
        assert_eq!(exact(&[f64::MAX, f64::MAX]).value(), f64::INFINITY);
    }

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

    #[test]
    fn reducer_merge_matches_single_pass_on_integer_state() {
        let spec = tiny_spec(6);
        let cells = run_cells(&spec);
        let mut single = FleetReducer::new();
        for (u, r) in &cells {
            single.absorb(u, r);
        }
        let mut left = FleetReducer::new();
        let mut right = FleetReducer::new();
        for (i, (u, r)) in cells.iter().enumerate() {
            if i < 3 {
                left.absorb(u, r);
            } else {
                right.absorb(u, r);
            }
        }
        right.merge(&left);
        assert_eq!(right, single, "merge is exact");
        assert_eq!(right.finalize(), single.finalize());
        assert_eq!(
            FleetEngine::paper().run(&spec, &ExecPolicy::Sequential),
            single.finalize()
        );
    }

    /// Policy: every `jobs` width, cached or not. Batch: users folded in
    /// contiguous batches of any size, one reducer per batch, merged.
    #[test]
    fn aggregate_is_policy_and_batch_invariant() {
        let spec = tiny_spec(10);
        let seq = FleetEngine::paper().run(&spec, &ExecPolicy::Sequential);
        for jobs in [2, 3, 4] {
            let par = FleetEngine::paper().run(&spec, &ExecPolicy::Parallel { jobs });
            assert_eq!(seq, par, "jobs={jobs} must equal sequential");
            assert_eq!(seq.render(), par.render());
        }
        let dir = std::env::temp_dir().join(format!("ecas-fleet-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for jobs in [3, 1] {
            let policy = ExecPolicy::cached(&dir, ExecPolicy::Parallel { jobs });
            let cached = FleetEngine::paper().run(&spec, &policy);
            assert_eq!(seq, cached, "cached jobs={jobs}");
        }
        std::fs::remove_dir_all(&dir).ok();
        let cells = run_cells(&spec);
        for batch in [1, 3, 7] {
            let mut fleet = FleetReducer::new();
            for chunk in cells.chunks(batch) {
                let mut reducer = FleetReducer::new();
                for (u, r) in chunk {
                    reducer.absorb(u, r);
                }
                fleet.merge(&reducer);
            }
            assert_eq!(fleet.finalize(), seq, "batch={batch}");
        }
    }

    #[test]
    fn empty_fleet_reports_zeros() {
        let report = FleetEngine::paper().run(&tiny_spec(0), &ExecPolicy::Parallel { jobs: 3 });
        assert_eq!(report, FleetReducer::new().finalize());
        assert_eq!(report.users, 0);
        assert_eq!(report.mean_qoe, 0.0);
        assert_eq!(report.downloaded_mb.value(), 0.0);
        assert!(report.render().starts_with("fleet users=0\n"));
    }

    #[test]
    fn unusable_cache_dir_degrades_to_uncached_misses() {
        let root = std::env::temp_dir().join(format!("ecas-fleet-blocked-{}", std::process::id()));
        std::fs::create_dir_all(&root).unwrap();
        let blocker = root.join("file");
        std::fs::write(&blocker, b"not a directory").unwrap();
        let spec = tiny_spec(5);
        let engine = FleetEngine::paper();
        let policy = ExecPolicy::cached(blocker.join("cache"), ExecPolicy::Parallel { jobs: 2 });
        let report = engine.run(&spec, &policy);
        let uncached = FleetEngine::paper().run(&spec, &ExecPolicy::Sequential);
        assert_eq!(report, uncached);
        let stats = engine.stats();
        let counts = (stats.hits, stats.misses, stats.write_errors);
        assert_eq!(counts, (0, 5, 1), "{stats:?}");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn report_is_populated_and_consistent() {
        let spec = tiny_spec(12);
        let report = FleetEngine::paper().run(&spec, &ExecPolicy::parallel());
        assert_eq!(report.users, 12);
        assert!(report.segments > 0);
        assert!(report.mean_qoe > 0.0);
        assert!(report.mean_energy_j > 0.0);
        assert!(report.energy_per_gb_j > 0.0);
        assert!(report.played_s > 0.0);
        let arrivals: u64 = report.arrivals_by_hour.iter().sum();
        assert_eq!(arrivals, 12);
        for classes in [&report.by_context, &report.by_battery, &report.by_signal] {
            let share: f64 = classes.iter().map(|c| c.share).sum();
            assert!((share - 1.0).abs() < 1e-9, "class shares sum to 1");
        }
        let text = report.render();
        assert!(text.contains("fleet users=12"));
        assert!(text.contains("arrivals_by_hour"));
        // Round-trips through JSON.
        let json = serde_json::to_string(&report).unwrap();
        let back: FleetReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    /// An f64 of any sign across a wide exponent range.
    fn wide(mantissa: f64, exponent: i32) -> f64 {
        mantissa * 2f64.powi(exponent)
    }

    /// Sums `values` by splitting them at seeded points into a random
    /// binary tree of reducers, merged bottom-up.
    fn tree_sum(values: &[f64], seed: u64) -> ExactSum {
        if values.len() <= 1 {
            return exact(values);
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        let cut = rng.gen_range(0..=values.len());
        let (a, b) = values.split_at(cut);
        if a.is_empty() || b.is_empty() {
            return exact(values);
        }
        let mut left = tree_sum(a, rng.gen_range(0..u64::MAX));
        left.merge(&tree_sum(b, rng.gen_range(0..u64::MAX)));
        left
    }

    proptest! {
        #[test]
        fn exact_sum_is_order_and_merge_free(
            terms in proptest::collection::vec((-1.0f64..1.0, -300i32..300, 0u8..4), 0..40),
            seed in 0u64..u64::MAX,
        ) {
            // Every fourth-ish term also appears negated, so totals cancel
            // catastrophically.
            let mut values: Vec<f64> = Vec::new();
            for &(m, e, kind) in &terms {
                values.push(wide(m, e));
                if kind == 0 {
                    values.push(-wide(m, e));
                }
            }
            let reference = exact(&values).value();
            let mut reversed = values.clone();
            reversed.reverse();
            prop_assert_eq!(exact(&reversed).value().to_bits(), reference.to_bits());
            let mut shuffled = values.clone();
            let mut rng = SmallRng::seed_from_u64(seed);
            for i in (1..shuffled.len()).rev() {
                shuffled.swap(i, rng.gen_range(0..=i));
            }
            prop_assert_eq!(exact(&shuffled).value().to_bits(), reference.to_bits());
            prop_assert_eq!(tree_sum(&shuffled, seed).value().to_bits(), reference.to_bits());
        }

        #[test]
        fn exact_sum_rounds_the_exact_total(
            units in proptest::collection::vec(-(1i64 << 62)..(1i64 << 62), 0..40),
        ) {
            // Multiples of 2^-40 below 2^22 in magnitude: their exact
            // total fits an i128 count of 2^-40 units, and `as f64`
            // rounds that count to nearest, ties to even.
            let scale = 2f64.powi(-40);
            let mut total: i128 = 0;
            let mut values = Vec::new();
            for &u in &units {
                let whole = u as f64;
                total += whole as i128;
                values.push(whole * scale);
            }
            let expected = total as f64 * scale;
            prop_assert_eq!(exact(&values).value().to_bits(), expected.to_bits());
        }
    }
}
