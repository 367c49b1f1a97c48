//! The §III-B project-tracking dashboard: the metrics the paper says
//! were continuously tracked during POWER10 development — IPC, core
//! power, core efficiency, latch count, % clock enabled, potential latch
//! switching, and observed latch switching ratio — computed for any
//! configuration over the suite.

use crate::runner;
use p10_rtlsim::{run_detailed, Roi, ToggleDensity};
use p10_uarch::CoreConfig;
use p10_workloads::Benchmark;
use serde::{Deserialize, Serialize};

/// The §III-B tracked-metric row for one design snapshot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrackingRow {
    /// Configuration name.
    pub config: String,
    /// Suite-mean instructions per cycle.
    pub ipc: f64,
    /// Suite-mean core power.
    pub core_power: f64,
    /// Core efficiency (IPC per unit power).
    pub core_efficiency: f64,
    /// Latches in the core design.
    pub latches: f64,
    /// % of latch clocks enabled (inverse of % clock gating).
    pub clock_enabled_pct: f64,
    /// Potential latch switching (per latch per cycle).
    pub potential_switching: f64,
    /// Observed / potential latch switching ratio.
    pub observed_ratio: f64,
}

/// Computes the tracking row for one configuration over a suite subset.
/// The detailed runs share the engine's worker pool; the suite means are
/// summed in suite order, so the row is identical to a serial run.
#[must_use]
pub fn track(cfg: &CoreConfig, suite: &[Benchmark], seed: u64, ops: u64) -> TrackingRow {
    let reports = runner::run_jobs_par(suite, |_, b| {
        let trace = b.workload(seed).trace_view_or_panic(ops);
        run_detailed(
            cfg,
            vec![trace],
            Roi::new(500, ops * 40),
            ToggleDensity::default(),
        )
    });
    let mut ipc = 0.0;
    let mut power = 0.0;
    let mut clock_pct = 0.0;
    let mut potential = 0.0;
    let mut observed = 0.0;
    let mut latches = 0.0;
    for r in &reports {
        ipc += r.roi_activity.ipc();
        power += r.power.core_total();
        clock_pct += r.powerminer.clock_enable_pct;
        potential += r.powerminer.potential_switching;
        observed += r.powerminer.observed_switching;
        latches = r.powerminer.total_latches;
    }
    let n = suite.len().max(1) as f64;
    let (ipc, power) = (ipc / n, power / n);
    TrackingRow {
        config: cfg.name.clone(),
        ipc,
        core_power: power,
        core_efficiency: ipc / power.max(1e-12),
        latches,
        clock_enabled_pct: clock_pct / n,
        potential_switching: potential / n,
        observed_ratio: if potential > 0.0 {
            observed / potential
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p10_workloads::specint_like;

    #[test]
    fn tracking_dashboard_shows_the_development_story() {
        let suite = specint_like();
        let sel = &suite[7..9];
        let p9 = track(&CoreConfig::power9(), sel, 42, 6_000);
        let p10 = track(&CoreConfig::power10(), sel, 42, 6_000);
        // The §III-B narrative: POWER10 has MORE latches yet LESS clock
        // enabled, higher IPC, lower power, much better efficiency.
        assert!(
            p10.latches > p9.latches,
            "{} vs {}",
            p10.latches,
            p9.latches
        );
        assert!(p10.clock_enabled_pct < p9.clock_enabled_pct);
        assert!(p10.ipc > p9.ipc);
        assert!(p10.core_power < p9.core_power);
        assert!(p10.core_efficiency > p9.core_efficiency * 1.8);
        assert!(p10.observed_ratio <= 1.0 && p10.observed_ratio > 0.0);
    }
}
