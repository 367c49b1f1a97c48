//! The Fig. 5 experiment: DGEMM flops/cycle and core power, POWER10
//! (VSU and MMA code) relative to the POWER9 VSU baseline.
//!
//! Paper numbers at the same point: P10 VSU = 1.95× flops/cycle at −32.2%
//! core power; P10 MMA = 5.47× flops/cycle at −24.1% core power; P10
//! achieves 9.94 DP flops/cycle with VSU code (62.1% of its 16/cycle
//! peak) and 27.9 with MMA code (87.1% of 32/cycle).

use crate::runner;
use crate::scenario::{run_traces, ScenarioResult};
use p10_kernels::gemm::{dgemm_mma, dgemm_vsu};
use p10_uarch::CoreConfig;
use serde::{Deserialize, Serialize};

/// One bar-pair of Fig. 5.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GemmPoint {
    /// Label (e.g. `"P10 MMA"`).
    pub label: String,
    /// Double-precision flops per cycle.
    pub flops_per_cycle: f64,
    /// Fraction of the machine's theoretical peak.
    pub peak_utilization: f64,
    /// Core power (relative units).
    pub core_power: f64,
}

/// The full Fig. 5 dataset.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig5 {
    /// POWER9 running the VSU kernel (the baseline).
    pub p9_vsu: GemmPoint,
    /// POWER10 running the same VSU kernel.
    pub p10_vsu: GemmPoint,
    /// POWER10 running the MMA kernel.
    pub p10_mma: GemmPoint,
}

impl Fig5 {
    /// P10-VSU flops/cycle relative to P9-VSU (paper: 1.95×).
    #[must_use]
    pub fn vsu_speedup(&self) -> f64 {
        self.p10_vsu.flops_per_cycle / self.p9_vsu.flops_per_cycle
    }

    /// P10-MMA flops/cycle relative to P9-VSU (paper: 5.47×).
    #[must_use]
    pub fn mma_speedup(&self) -> f64 {
        self.p10_mma.flops_per_cycle / self.p9_vsu.flops_per_cycle
    }

    /// P10-VSU core-power change relative to P9-VSU (paper: −32.2%).
    #[must_use]
    pub fn vsu_power_delta(&self) -> f64 {
        self.p10_vsu.core_power / self.p9_vsu.core_power - 1.0
    }

    /// P10-MMA core-power change relative to P9-VSU (paper: −24.1%).
    #[must_use]
    pub fn mma_power_delta(&self) -> f64 {
        self.p10_mma.core_power / self.p9_vsu.core_power - 1.0
    }
}

fn measure(cfg: &CoreConfig, kernel: &p10_workloads::Workload, ops: u64, peak: f64) -> GemmPoint {
    let trace = kernel.trace_view_or_panic(ops);
    let r: ScenarioResult = run_traces(cfg, &kernel.name, vec![trace]);
    let fpc = r.sim.activity.flops_per_cycle();
    GemmPoint {
        label: format!("{} {}", cfg.name, kernel.name),
        flops_per_cycle: fpc,
        peak_utilization: if peak > 0.0 { fpc / peak } else { 0.0 },
        core_power: r.core_power(),
    }
}

/// Runs the Fig. 5 experiment. `ops` is the per-point dynamic-instruction
/// budget (the paper averages 5K-cycle windows; 60K+ ops gives several
/// windows' worth).
#[must_use]
pub fn run_fig5(ops: u64) -> Fig5 {
    let p9 = CoreConfig::power9();
    let p10 = CoreConfig::power10();
    let vsu = dgemm_vsu(1 << 40);
    let mma = dgemm_mma(1 << 40);
    let bars = [
        (&p9, &vsu, f64::from(p9.vsx_peak_dp_flops())),
        (&p10, &vsu, f64::from(p10.vsx_peak_dp_flops())),
        (&p10, &mma, f64::from(p10.mma_peak_dp_flops())),
    ];
    let [p9_vsu, p10_vsu, p10_mma]: [GemmPoint; 3] =
        runner::run_jobs_par(&bars, |_, &(cfg, kernel, peak)| {
            measure(cfg, kernel, ops, peak)
        })
        .try_into()
        .expect("three bars");
    Fig5 {
        p9_vsu,
        p10_vsu,
        p10_mma,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_shape_matches_paper() {
        let f = run_fig5(40_000);
        // P10 VSU beats P9 VSU substantially (paper 1.95x).
        assert!(
            f.vsu_speedup() > 1.5 && f.vsu_speedup() < 2.5,
            "VSU speedup {}",
            f.vsu_speedup()
        );
        // MMA code multiplies that again (paper 5.47x).
        assert!(f.mma_speedup() > 3.5, "MMA speedup {}", f.mma_speedup());
        // Both P10 points burn less core power than P9 (paper -32%/-24%).
        assert!(
            f.vsu_power_delta() < 0.0,
            "VSU dpower {}",
            f.vsu_power_delta()
        );
        assert!(
            f.mma_power_delta() < 0.0,
            "MMA dpower {}",
            f.mma_power_delta()
        );
        // Utilizations in plausible bands (paper 62.1% and 87.1%).
        assert!(f.p10_vsu.peak_utilization > 0.4 && f.p10_vsu.peak_utilization <= 1.0);
        assert!(f.p10_mma.peak_utilization > 0.6 && f.p10_mma.peak_utilization <= 1.0);
    }
}
