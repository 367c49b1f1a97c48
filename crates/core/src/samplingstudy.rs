//! The exact-vs-sampled study behind `figures sampling`.
//!
//! Each workload runs twice on POWER10: exactly, as ground truth, and
//! SimPoint-weighted in the given mode. The study reports every
//! estimate's error next to the bound the sampled run printed for
//! itself, the wall time of both sides, one `bound:5` auto-tuning run,
//! and the warm-state checkpoint traffic of all of it. Wall times vary
//! run to run, so the study is never cached.

use crate::runner;
use crate::sampling::{self, CkptStore, SamplingMode};
use crate::scenario;
use p10_uarch::CoreConfig;
use p10_workloads::Benchmark;
use serde::{Deserialize, Serialize};
use serde_json::{json, Value};

/// The default study mode when the CLI didn't ask for a specific one:
/// ~64 intervals across the op budget with a 1/8-interval warmup. The
/// interval floor keeps per-interval measurement above the granularity
/// where boundary residue dominates; small budgets therefore degrade
/// gracefully toward exact (fewer intervals, most of them simulated).
#[must_use]
pub fn default_mode(ops: u64) -> SamplingMode {
    let interval_ops = usize::try_from(ops / 64).unwrap_or(usize::MAX).max(2500);
    SamplingMode::SimPoints {
        interval_ops,
        k: 8,
        warmup_ops: interval_ops / 8,
    }
}

/// One workload of the study: exact against sampled.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SampledRow {
    workload: String,
    mode: String,
    exact_cpi: f64,
    sampled_cpi: f64,
    cpi_rel_err: f64,
    cpi_bound_rel: f64,
    exact_core_power: f64,
    sampled_core_power: f64,
    power_rel_err: f64,
    power_bound_rel: f64,
    simulated_ops: u64,
    skipped_ops: u64,
    intervals: u64,
    clusters: u64,
    exact_s: f64,
    sampled_s: f64,
    speedup: f64,
    within_bound: bool,
}

/// The `bound:5` auto-tuning run on the study's first workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct BoundRow {
    workload: String,
    mode: String,
    cpi_rel_err: f64,
    cpi_bound_rel: f64,
    power_rel_err: f64,
    power_bound_rel: f64,
    simulated_ops: u64,
    total_ops: u64,
    clusters: u64,
}

/// Warm-state checkpoint traffic across the whole study.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Checkpoints {
    hits: u64,
    misses: u64,
    bytes: u64,
    warm_passes: u64,
}

/// The study's result: [`SamplingStudy::payload`] is its JSON form and
/// [`SamplingStudy::render`] its text.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SamplingStudy {
    rows: Vec<SampledRow>,
    bound: Option<BoundRow>,
    checkpoints: Checkpoints,
    /// The bound run's wall time: the text prints it, the payload does
    /// not.
    bound_wall_s: f64,
}

/// Runs the study on `benches` at `ops` ops each, sampled in `mode`.
///
/// # Panics
///
/// Panics if `benches` is empty.
#[must_use]
pub fn run(benches: &[Benchmark], ops: u64, mode: &SamplingMode) -> SamplingStudy {
    let cfg = CoreConfig::power10();
    // One pool job per workload: both sides run (and are timed) on the
    // same worker; everything order-sensitive happens below, in workload
    // order. The trace is synthesized before the exact timer starts, so
    // both wall times cover simulation only.
    let runs = runner::run_jobs_par(benches, |_, b| {
        let views = scenario::benchmark_views(&cfg, b, 42, ops);
        let t0 = std::time::Instant::now();
        let exact = scenario::run_traces(&cfg, &b.name, views);
        let exact_s = t0.elapsed().as_secs_f64();
        let t1 = std::time::Instant::now();
        let s = sampling::run_benchmark_sampled(&cfg, b, 42, ops, mode);
        (exact, exact_s, s, t1.elapsed().as_secs_f64())
    });
    let mut rows = Vec::new();
    for (b, (exact, exact_s, s, sampled_s)) in benches.iter().zip(runs) {
        sampling::record_obs(&s.stats);
        let cpi_err = (s.stats.cpi_est - exact.sim.cpi()).abs() / exact.sim.cpi().max(1e-12);
        let power_err =
            (s.stats.power_est - exact.core_power()).abs() / exact.core_power().max(1e-12);
        rows.push(SampledRow {
            workload: b.name.clone(),
            mode: s.stats.mode,
            exact_cpi: exact.sim.cpi(),
            sampled_cpi: s.stats.cpi_est,
            cpi_rel_err: cpi_err,
            cpi_bound_rel: s.stats.cpi_bound_rel,
            exact_core_power: exact.core_power(),
            sampled_core_power: s.stats.power_est,
            power_rel_err: power_err,
            power_bound_rel: s.stats.power_bound_rel,
            simulated_ops: s.stats.simulated_ops,
            skipped_ops: s.stats.skipped_ops,
            intervals: s.stats.intervals,
            clusters: s.stats.clusters,
            exact_s,
            sampled_s,
            speedup: exact_s / sampled_s.max(1e-9),
            within_bound: cpi_err <= s.stats.cpi_bound_rel && power_err <= s.stats.power_bound_rel,
        });
    }

    // Target-bound auto-tuning: instead of fixing K, grow it until the
    // reported error bound meets a target. Later rounds reuse the warm
    // checkpoints and cached interval measurements earlier rounds (and
    // the study loop above) persisted, so each round only pays for its
    // newly measured intervals. Skipped when the study already runs in
    // bound mode.
    let mut bound_wall_s = 0.0;
    let bound = (!matches!(mode, SamplingMode::Bound { .. })).then(|| {
        let target = SamplingMode::parse("bound:5").expect("static mode");
        let (b, exact) = (&benches[0], &rows[0]);
        let t0 = std::time::Instant::now();
        let s = sampling::run_benchmark_sampled(&cfg, b, 42, ops, &target);
        bound_wall_s = t0.elapsed().as_secs_f64();
        sampling::record_obs(&s.stats);
        BoundRow {
            workload: b.name.clone(),
            mode: s.stats.mode,
            cpi_rel_err: (s.stats.cpi_est - exact.exact_cpi).abs() / exact.exact_cpi.max(1e-12),
            cpi_bound_rel: s.stats.cpi_bound_rel,
            power_rel_err: (s.stats.power_est - exact.exact_core_power).abs()
                / exact.exact_core_power.max(1e-12),
            power_bound_rel: s.stats.power_bound_rel,
            simulated_ops: s.stats.simulated_ops,
            total_ops: s.stats.total_ops,
            clusters: s.stats.clusters,
        }
    });

    // A cold run reports misses and warm passes; a repeat run (same
    // budget, shared P10SIM_CKPT_DIR or disk cache) reports hits and zero
    // warm passes.
    let store = CkptStore::process_default();
    SamplingStudy {
        rows,
        bound,
        checkpoints: Checkpoints {
            hits: store.ckpt_hits(),
            misses: store.ckpt_misses(),
            bytes: store.ckpt_bytes(),
            warm_passes: store.warm_passes(),
        },
        bound_wall_s,
    }
}

impl SamplingStudy {
    /// The JSON form: the rows, the bound run and the checkpoint traffic.
    #[must_use]
    pub fn payload(&self) -> Value {
        json!({
            "rows": self.rows,
            "bound": self.bound,
            "checkpoints": self.checkpoints,
        })
    }

    /// The text form, ending with the error bound verdict, the bound run
    /// and the checkpoint traffic.
    #[must_use]
    pub fn render(&self) -> String {
        let mut s = String::new();
        for r in &self.rows {
            s += &format!(
                "{:<16} CPI {:>6.3} -> {:>6.3} (err {:>4.1}% <= bound {:>4.1}%)  \
                 power {:>6.1} -> {:>6.1} W (err {:>4.1}% <= bound {:>4.1}%)  {}\n\
                 {:<16} simulated {}/{} ops over {} intervals ({} clusters)  \
                 wall {:.2}s -> {:.2}s  speedup {:.1}x\n",
                r.workload,
                r.exact_cpi,
                r.sampled_cpi,
                r.cpi_rel_err * 100.0,
                r.cpi_bound_rel * 100.0,
                r.exact_core_power,
                r.sampled_core_power,
                r.power_rel_err * 100.0,
                r.power_bound_rel * 100.0,
                if r.within_bound { "OK" } else { "VIOLATED" },
                "",
                r.simulated_ops,
                r.simulated_ops + r.skipped_ops,
                r.intervals,
                r.clusters,
                r.exact_s,
                r.sampled_s,
                r.speedup
            );
        }
        let all_ok = self.rows.iter().all(|r| r.within_bound);
        #[allow(clippy::cast_precision_loss)]
        let mean_speedup =
            self.rows.iter().map(|r| r.speedup).sum::<f64>() / self.rows.len() as f64;
        s += &format!(
            "error bound check: {}  mean speedup {mean_speedup:.1}x\n",
            if all_ok { "OK" } else { "VIOLATED" }
        );
        if let Some(b) = &self.bound {
            let wall = self.bound_wall_s;
            s += &format!(
                "bound:5 on {:<12} -> {}  CPI err {:>4.1}% <= bound {:>4.1}%  \
                 power err {:>4.1}% <= bound {:>4.1}%  simulated {}/{}  wall {wall:.2}s ({:.1}x)\n",
                b.workload,
                b.mode,
                b.cpi_rel_err * 100.0,
                b.cpi_bound_rel * 100.0,
                b.power_rel_err * 100.0,
                b.power_bound_rel * 100.0,
                b.simulated_ops,
                b.total_ops,
                self.rows[0].exact_s / wall.max(1e-9)
            );
        }
        let c = &self.checkpoints;
        s + &format!(
            "checkpoints: {} hit(s), {} miss(es), {} bytes, {} warm pass(es)\n",
            c.hits, c.misses, c.bytes, c.warm_passes
        )
    }
}
