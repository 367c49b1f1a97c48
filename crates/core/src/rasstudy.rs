//! The SERMiner derating studies: Fig. 13 (per-testcase derating) and
//! Fig. 14 (POWER9 vs POWER10 derating versus VT).

use crate::runner;
use p10_rtlsim::{run_detailed, Roi, RtlReport, ToggleDensity};
use p10_serminer::{derating_curve, derating_row, DeratingCurve, DeratingRow};
use p10_uarch::CoreConfig;
use p10_workloads::microbench::{derating_grid, generate, DataInit, MicrobenchSpec};
use p10_workloads::{chopstix, specint_like};
use serde::{Deserialize, Serialize};

fn detailed<T: Into<p10_isa::TraceView>>(
    cfg: &CoreConfig,
    traces: Vec<T>,
    init: DataInit,
) -> RtlReport {
    let toggle = match init {
        DataInit::Zero => ToggleDensity::zero_init(),
        DataInit::Random => ToggleDensity::random_init(),
    };
    let mut cfg = cfg.clone();
    cfg.smt = match traces.len() {
        1 => p10_uarch::SmtMode::St,
        2 => p10_uarch::SmtMode::Smt2,
        _ => p10_uarch::SmtMode::Smt4,
    };
    run_detailed(&cfg, traces, Roi::new(500, 2_000_000), toggle)
}

/// A detailed run of one grid testcase, through the engine cache.
///
/// Fig. 13 on POWER10 and the Fig. 14 POWER10 pass run the same leading
/// grid specs at the same op budget; since [`generate`] and the detailed
/// simulator are both deterministic, the report is fully determined by
/// `(config, spec, ops)` and the engine's memo shares it between them.
fn grid_detailed(cfg: &CoreConfig, spec: &MicrobenchSpec, ops: u64) -> RtlReport {
    runner::cached(
        &format!("rtl {} @ {} ops={ops}", spec.name(), cfg.name),
        &format!(
            "rtl_grid|{}|{}|{ops}",
            serde_json::to_string(cfg).expect("config serializes"),
            serde_json::to_string(spec).expect("spec serializes"),
        ),
        || {
            let traces: Vec<p10_isa::TraceView> = (0..spec.smt)
                .map(|t| generate(spec, 13 + u64::from(t)).trace_view_or_panic(ops))
                .collect();
            detailed(cfg, traces, spec.init)
        },
    )
}

/// The Fig. 13 dataset: derating per testcase (the Microprobe-style grid
/// plus SPEC proxy workloads).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig13 {
    /// Per-testcase rows, microbenchmarks first, then SPEC proxies.
    pub rows: Vec<DeratingRow>,
}

/// Runs Fig. 13 on a configuration. The grid testcases and SPEC proxies
/// run across the engine's worker pool; rows keep their serial order.
#[must_use]
pub fn run_fig13(cfg: &CoreConfig, ops: u64, spec_benches: usize) -> Fig13 {
    // Microprobe-style grid. The ST/SMT labels describe the original
    // testcase family; the kernels run on the configured core.
    let grid = derating_grid();
    let mut rows = runner::run_jobs_par(&grid, |_, spec| {
        derating_row(&spec.name(), &grid_detailed(cfg, spec, ops))
    });
    // SPEC proxy workloads (top hot-function proxies of a few suite
    // members; random data).
    let benches: Vec<_> = specint_like().into_iter().take(spec_benches).collect();
    let spec_rows = runner::run_jobs_par(&benches, |_, b| {
        let w = b.workload(29);
        let set = chopstix::extract(&w, ops.min(40_000), 3);
        set.proxies.first().map(|p| {
            let r = detailed(cfg, vec![p.trace(ops)], DataInit::Random);
            derating_row(&format!("{}_spec", b.name), &r)
        })
    });
    rows.extend(spec_rows.into_iter().flatten());
    Fig13 { rows }
}

/// The Fig. 14 dataset: derating-vs-VT curves for POWER9 and POWER10,
/// merged across the same workload set.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig14 {
    /// POWER9 curve.
    pub p9: DeratingCurve,
    /// POWER10 curve.
    pub p10: DeratingCurve,
}

impl Fig14 {
    /// Runtime-derating difference (P10 − P9) at a VT.
    #[must_use]
    pub fn runtime_gap_at(&self, vt: f64) -> f64 {
        let find = |c: &DeratingCurve| {
            c.runtime_by_vt
                .iter()
                .find(|(v, _)| (v - vt).abs() < 1e-9)
                .map_or(0.0, |&(_, d)| d)
        };
        find(&self.p10) - find(&self.p9)
    }
}

/// Runs Fig. 14 across the derating grid workloads; the twelve detailed
/// runs (two designs by six testcases) share the engine's worker pool.
#[must_use]
pub fn run_fig14(ops: u64, vts: &[f64]) -> Fig14 {
    let designs = [CoreConfig::power9(), CoreConfig::power10()];
    let specs: Vec<MicrobenchSpec> = derating_grid().into_iter().take(6).collect();
    let jobs: Vec<(&CoreConfig, &MicrobenchSpec)> = designs
        .iter()
        .flat_map(|cfg| specs.iter().map(move |spec| (cfg, spec)))
        .collect();
    let reports = runner::run_jobs_par(&jobs, |_, &(cfg, spec)| grid_detailed(cfg, spec, ops));
    let curve = |i: usize| {
        let refs: Vec<&RtlReport> = reports[i * specs.len()..(i + 1) * specs.len()]
            .iter()
            .collect();
        derating_curve(&designs[i].name, &refs, vts)
    };
    Fig14 {
        p9: curve(0),
        p10: curve(1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig13_rows_cover_grid_and_spec() {
        let f = run_fig13(&CoreConfig::power10(), 6_000, 1);
        assert_eq!(f.rows.len(), 12 + 1);
        for r in &f.rows {
            assert!(r.static_pct >= 0.0 && r.static_pct <= 100.0);
            // More aggressive VT classifies more latches vulnerable, so
            // runtime derating shrinks as VT rises.
            assert!(r.runtime_vt10 >= r.runtime_vt50);
            assert!(r.runtime_vt50 >= r.runtime_vt90);
        }
    }

    #[test]
    fn fig14_p10_runtime_derating_exceeds_p9() {
        let f = run_fig14(6_000, &[0.1, 0.5, 0.9]);
        for vt in [0.1, 0.5, 0.9] {
            assert!(
                f.runtime_gap_at(vt) > 0.0,
                "P10 runtime derating must exceed P9 at VT={vt}"
            );
        }
    }
}
