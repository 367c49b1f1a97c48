//! `sim-throughput`: raw core-model scheduling throughput, reported as
//! simulated Mcycles/s and simulated Mops/s for an ALU-bound, a
//! cache-miss-bound, and an SMT4 workload, under both the `Polled`
//! (reference) and `EventDriven` schedulers.
//!
//! Each scenario also runs in the two *observed* modes — full latch
//! bookkeeping (`rtlsim-detailed`) and windowed counter extraction
//! (`apex-windowed`) — so the cost of riding the span-aware observer
//! stream is tracked alongside the bare scheduler numbers.
//!
//! Trace acquisition is timed separately from simulation: each scenario
//! reports the cold synthesis wall (first functional execution of the
//! workload) next to the warm wall (every later acquisition, served
//! zero-copy from the process-wide trace arena), and the per-row `wall s`
//! column is pure simulation time over pre-acquired `TraceView`s.
//!
//! Sampled execution gets its own section: each of the sampling study's
//! workloads runs exact and SimPoint-sampled, reporting
//! wall-clock speedup next to the measured CPI error and the bound the
//! sampled run printed for itself.
//!
//! The design-space sweep gets a section too: a multi-hundred-point
//! grid runs through the incremental `dse` engine (one detailed
//! simulation per timing class, activity-trace replay for everything
//! else), next to a measured estimate of what naive per-point
//! re-simulation would cost.
//!
//! Warm-state checkpoint reuse gets a section: a sweep of timing-only
//! config variants (one warm-equivalence class) runs once with private
//! per-config checkpoint stores (every config re-warms, the pre-PR 10
//! cost) and once with a shared store (one warm pass, every other config
//! restores boundary checkpoints), reporting the sweep walls side by
//! side.
//!
//! Besides the human-readable table on stdout, the bench writes
//! `BENCH_pipeline.json` (override the path with `P10SIM_BENCH_OUT`) so
//! the simulator's performance trajectory is tracked across PRs — schema
//! `p10sim-bench-pipeline/v6` (v5 plus the `warm_reuse` section).
//!
//! Run with `cargo bench -p p10-bench --bench sim_throughput`.

use p10_isa::{Machine, ProgramBuilder, Reg, TraceView};
use p10_uarch::{Core, CoreConfig, Scheduler, SimResult, SmtMode};
use p10_workloads::Workload;
use serde::Serialize;
use std::time::Instant;

const MAX_CYCLES: u64 = 100_000_000;
const MAX_TRACE_OPS: u64 = 50_000_000;
const SAMPLES: usize = 5;

/// Independent adds in a counted loop: issue-width bound, almost no
/// stall cycles — the event-driven scheduler's worst case.
fn alu_bound(iters: i64) -> Workload {
    let mut b = ProgramBuilder::new();
    b.li(Reg::gpr(4), iters);
    b.mtctr(Reg::gpr(4));
    let top = b.bind_label();
    for k in 0..8u16 {
        let r = 5 + (k % 20);
        b.addi(Reg::gpr(r), Reg::gpr(r), 1);
    }
    b.bdnz(top);
    Workload::new(
        "bench_alu_bound".to_owned(),
        b.build(),
        Machine::new(),
        Vec::new(),
    )
}

/// A dependent page-stride load chain: the next address depends on the
/// loaded value (which is zero, so the walk stays a plain stride), so
/// every iteration serializes behind a memory miss — nearly every cycle
/// is idle, the fast-forward best case.
fn cache_miss_bound(iters: i64, seed: u64) -> Workload {
    let mut b = ProgramBuilder::new();
    b.li(Reg::gpr(1), 0x20_0000 + (seed * 0x40_0000) as i64);
    b.li(Reg::gpr(4), iters);
    b.mtctr(Reg::gpr(4));
    let top = b.bind_label();
    b.ld(Reg::gpr(2), Reg::gpr(1), 0);
    b.add(Reg::gpr(1), Reg::gpr(1), Reg::gpr(2)); // address <- loaded 0
    b.addi(Reg::gpr(1), Reg::gpr(1), 4096); // new page/line every iter
    b.bdnz(top);
    Workload::new(
        format!("bench_chase_{iters}_{seed}"),
        b.build(),
        Machine::new(),
        Vec::new(),
    )
}

struct Scenario {
    name: &'static str,
    cfg: CoreConfig,
    workloads: Vec<Workload>,
}

fn scenarios() -> Vec<Scenario> {
    let p10 = CoreConfig::power10;
    let mut no_prefetch = p10();
    no_prefetch.prefetch_streams = 0;
    let mut smt4 = p10();
    smt4.smt = SmtMode::Smt4;
    vec![
        Scenario {
            name: "alu_bound",
            cfg: p10(),
            workloads: vec![alu_bound(40_000)],
        },
        Scenario {
            name: "cache_miss_bound",
            cfg: no_prefetch,
            workloads: vec![cache_miss_bound(20_000, 0)],
        },
        Scenario {
            name: "smt4_mixed",
            cfg: smt4,
            workloads: (0..4)
                .map(|t| cache_miss_bound(6_000 + 500 * t, t as u64))
                .collect(),
        },
    ]
}

#[derive(Debug, Serialize)]
struct BenchResult {
    workload: String,
    scheduler: String,
    /// What rides on the simulation: "unobserved" (bare scheduler),
    /// "rtlsim-detailed" (per-cycle latch bookkeeping over the span
    /// stream) or "apex-windowed" (windowed counter extraction).
    mode: String,
    threads: usize,
    sim_cycles: u64,
    sim_ops: u64,
    wall_s: f64,
    mcycles_per_s: f64,
    mops_per_s: f64,
}

/// Trace-acquisition timing for one scenario: cold synthesis (first
/// functional execution) versus warm zero-copy arena service.
#[derive(Debug, Serialize)]
struct SynthResult {
    workload: String,
    threads: usize,
    trace_ops: u64,
    synth_cold_s: f64,
    synth_warm_s: f64,
}

/// Sampled-execution throughput and accuracy for one workload × mode.
#[derive(Debug, Serialize)]
struct SamplingRow {
    workload: String,
    /// `exact` | `simpoints:I:K:W`.
    mode: String,
    /// Ops simulated in detail (total ops for `exact`, representative +
    /// cold-prefix intervals for the sampled modes).
    sim_ops: u64,
    wall_s: f64,
    /// Effective throughput: *claimed* ops (the whole trace) over wall —
    /// this is the number the fast-forward actually buys.
    mops_per_s: f64,
    speedup_vs_exact: f64,
    cpi_rel_err: f64,
    cpi_bound_rel: f64,
    within_bound: bool,
}

/// Design-space sweep reuse: the incremental `dse` engine versus a
/// measured estimate of naive per-point re-simulation.
#[derive(Debug, Serialize)]
struct DseBench {
    /// Grid points swept.
    points: u64,
    /// Distinct timing classes (detailed simulations per benchmark).
    classes: u64,
    /// Points evaluated by pure activity-trace replay.
    replay_hits: u64,
    /// Benchmarks in the suite.
    benches: u64,
    /// Wall of the full sweep (cold in-process caches, no disk).
    sweep_wall_s: f64,
    /// Mean measured wall of simulating one grid point's full suite
    /// exactly, over [`DSE_NAIVE_SAMPLE`] sampled points.
    naive_point_wall_s: f64,
    /// `naive_point_wall_s * points` — the per-config re-simulation cost
    /// the sweep avoids.
    est_naive_wall_s: f64,
    /// `est_naive_wall_s / sweep_wall_s`.
    est_speedup: f64,
}

/// Warm-state checkpoint reuse: one warm-equivalence class swept with
/// private per-config stores (cold) versus a shared store (reuse).
#[derive(Debug, Serialize)]
struct WarmReuseBench {
    /// Configs in the sweep (all timing-only variants of POWER10).
    configs: u64,
    /// Whole-trace functional warming passes in the cold sweep.
    cold_warm_passes: u64,
    /// Whole-trace functional warming passes in the reuse sweep (1).
    reuse_warm_passes: u64,
    /// Boundary checkpoints restored during the reuse sweep.
    ckpt_hits: u64,
    /// Checkpoint bytes serialized during the reuse sweep.
    ckpt_bytes: u64,
    /// Wall of the private-store sweep.
    cold_wall_s: f64,
    /// Wall of the shared-store sweep.
    reuse_wall_s: f64,
    /// `cold_wall_s / reuse_wall_s`.
    speedup: f64,
}

#[derive(Debug, Serialize)]
struct BenchReport {
    schema: String,
    samples_per_point: u64,
    synthesis: Vec<SynthResult>,
    results: Vec<BenchResult>,
    sampling: Vec<SamplingRow>,
    dse: DseBench,
    warm_reuse: WarmReuseBench,
}

/// One observation mode: how the simulation is driven and what consumes
/// the observer stream while the clock runs.
#[derive(Clone, Copy)]
enum Mode {
    /// Bare scheduler, no observer attached.
    Unobserved,
    /// Latch-accurate bookkeeping (`p10_rtlsim::run_detailed`).
    RtlsimDetailed,
    /// Windowed counter extraction (`p10_apex::run_apex`).
    ApexWindowed,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Unobserved => "unobserved",
            Mode::RtlsimDetailed => "rtlsim-detailed",
            Mode::ApexWindowed => "apex-windowed",
        }
    }

    fn run(self, cfg: &CoreConfig, traces: &[TraceView]) -> SimResult {
        match self {
            Mode::Unobserved => Core::new(cfg.clone()).run(traces.to_vec(), MAX_CYCLES),
            Mode::RtlsimDetailed => {
                use p10_rtlsim::{run_detailed, Roi, ToggleDensity};
                run_detailed(
                    cfg,
                    traces.to_vec(),
                    Roi::new(0, MAX_CYCLES),
                    ToggleDensity::default(),
                )
                .sim
            }
            Mode::ApexWindowed => p10_apex::run_apex(cfg, traces.to_vec(), 4096, MAX_CYCLES).sim,
        }
    }
}

/// Acquires the scenario's traces, timing the cold synthesis (first call
/// runs the functional model) and the warm arena path (later calls slice
/// the shared buffer). Returns the views for the simulation rows.
fn acquire_traces(s: &Scenario) -> (Vec<TraceView>, SynthResult) {
    let t0 = Instant::now();
    let traces: Vec<TraceView> = s
        .workloads
        .iter()
        .map(|w| w.trace_view_or_panic(MAX_TRACE_OPS))
        .collect();
    let cold = t0.elapsed().as_secs_f64();
    let mut warm = f64::INFINITY;
    for _ in 0..SAMPLES {
        let t0 = Instant::now();
        let again: Vec<TraceView> = s
            .workloads
            .iter()
            .map(|w| w.trace_view_or_panic(MAX_TRACE_OPS))
            .collect();
        warm = warm.min(t0.elapsed().as_secs_f64());
        for (a, b) in traces.iter().zip(again.iter()) {
            assert_eq!(a, b, "arena must replay identical traces");
        }
    }
    let synth = SynthResult {
        workload: s.name.to_owned(),
        threads: s.workloads.len(),
        trace_ops: traces.iter().map(|t| t.len() as u64).sum(),
        synth_cold_s: cold,
        synth_warm_s: warm,
    };
    (traces, synth)
}

fn measure(s: &Scenario, traces: &[TraceView], scheduler: Scheduler, mode: Mode) -> BenchResult {
    let mut cfg = s.cfg.clone();
    cfg.scheduler = scheduler;
    let reference = mode.run(&cfg, traces); // warm-up + stats
    let mut best = f64::INFINITY;
    for _ in 0..SAMPLES {
        let t0 = Instant::now();
        let r = mode.run(&cfg, traces);
        let dt = t0.elapsed().as_secs_f64();
        assert_eq!(
            r.activity.cycles, reference.activity.cycles,
            "non-deterministic simulation"
        );
        best = best.min(dt);
    }
    let cycles = reference.activity.cycles;
    let ops = reference.total_completed();
    BenchResult {
        workload: s.name.to_owned(),
        scheduler: format!("{scheduler:?}"),
        mode: mode.name().to_owned(),
        threads: traces.len(),
        sim_cycles: cycles,
        sim_ops: ops,
        wall_s: best,
        mcycles_per_s: cycles as f64 / best / 1e6,
        mops_per_s: ops as f64 / best / 1e6,
    }
}

/// Op budget for the sampled-execution section: large enough that the
/// SimPoint fast-forward dominates the fixed functional-warming pass,
/// small enough to keep the bench quick.
const SAMPLING_OPS: u64 = 200_000;

/// Runs the sampling study's workload slice (leela / exchange / xz
/// analogues) exact and SimPoint-sampled, reporting best-of-[`SAMPLES`] walls,
/// the measured CPI error against exact, and the bound each sampled run
/// printed for itself.
fn sampling_rows() -> Vec<SamplingRow> {
    use p10_core::sampling::{self, SamplingMode};
    use p10_core::scenario;

    let cfg = CoreConfig::power10();
    let suite = p10_workloads::specint_like();
    let interval_ops = usize::try_from(SAMPLING_OPS / 64)
        .unwrap_or(usize::MAX)
        .max(2500);
    let mode = SamplingMode::SimPoints {
        interval_ops,
        k: 8,
        warmup_ops: interval_ops / 8,
    };
    let mut rows = Vec::new();
    for bench in &suite[7..10] {
        let exact = scenario::run_benchmark(&cfg, bench, 42, SAMPLING_OPS);
        let total_ops = exact.sim.activity.completed;
        let mut exact_wall = f64::INFINITY;
        for _ in 0..SAMPLES {
            let t0 = Instant::now();
            let r = scenario::run_benchmark(&cfg, bench, 42, SAMPLING_OPS);
            exact_wall = exact_wall.min(t0.elapsed().as_secs_f64());
            assert_eq!(
                r.sim.activity.cycles, exact.sim.activity.cycles,
                "non-deterministic simulation"
            );
        }
        rows.push(SamplingRow {
            workload: bench.name.clone(),
            mode: "exact".to_owned(),
            sim_ops: total_ops,
            wall_s: exact_wall,
            mops_per_s: total_ops as f64 / exact_wall / 1e6,
            speedup_vs_exact: 1.0,
            cpi_rel_err: 0.0,
            cpi_bound_rel: 0.0,
            within_bound: true,
        });
        let s = sampling::run_benchmark_sampled(&cfg, bench, 42, SAMPLING_OPS, &mode);
        let mut wall = f64::INFINITY;
        for _ in 0..SAMPLES {
            let t0 = Instant::now();
            let again = sampling::run_benchmark_sampled(&cfg, bench, 42, SAMPLING_OPS, &mode);
            wall = wall.min(t0.elapsed().as_secs_f64());
            assert_eq!(
                again.stats.cpi_est.to_bits(),
                s.stats.cpi_est.to_bits(),
                "non-deterministic sampled simulation"
            );
        }
        let cpi_err = (s.stats.cpi_est - exact.sim.cpi()).abs() / exact.sim.cpi().abs().max(1e-12);
        rows.push(SamplingRow {
            workload: bench.name.clone(),
            mode: mode.describe(),
            sim_ops: s.stats.simulated_ops,
            wall_s: wall,
            mops_per_s: s.stats.total_ops as f64 / wall / 1e6,
            speedup_vs_exact: exact_wall / wall,
            cpi_rel_err: cpi_err,
            cpi_bound_rel: s.stats.cpi_bound_rel,
            within_bound: cpi_err <= s.stats.cpi_bound_rel,
        });
    }
    rows
}

/// Configs in the warm-reuse sweep: POWER10 plus timing-only variants,
/// all in one warm-equivalence class.
const WARM_REUSE_CONFIGS: usize = 6;

/// Sweeps [`WARM_REUSE_CONFIGS`] timing-only variants twice — private
/// per-config checkpoint stores versus one shared store — and reports
/// the sweep walls. Distinct seeds keep the two sweeps' measurement
/// cache keys disjoint, so neither leg hides work in the engine memo.
fn warm_reuse_bench() -> WarmReuseBench {
    use p10_core::sampling::{self, CkptStore, SamplingMode};
    use p10_core::scenario;

    let p10 = CoreConfig::power10();
    let suite = p10_workloads::specint_like();
    let bench = &suite[7];
    let interval_ops = usize::try_from(SAMPLING_OPS / 64)
        .unwrap_or(usize::MAX)
        .max(2500);
    let mode = SamplingMode::SimPoints {
        interval_ops,
        k: 8,
        warmup_ops: interval_ops / 8,
    };
    // Timing-only variants: same cache/TLB/predictor geometry, so one
    // functional warming pass covers the whole sweep.
    let mut cfgs = vec![p10.clone()];
    let mut cur = p10;
    for _ in 1..WARM_REUSE_CONFIGS {
        cur.mul_latency += 1;
        cfgs.push(cur.clone());
    }

    let sweep = |seed: u64, shared: Option<&CkptStore>| -> (f64, u64, u64, u64) {
        let views: Vec<_> = cfgs
            .iter()
            .map(|c| scenario::benchmark_views(c, bench, seed, SAMPLING_OPS))
            .collect();
        let private: Vec<CkptStore> = cfgs.iter().map(|_| CkptStore::new(None)).collect();
        let t0 = Instant::now();
        let mut warm_passes = 0;
        let mut hits = 0;
        let mut bytes = 0;
        for (i, (cfg, v)) in cfgs.iter().zip(views).enumerate() {
            let store = shared.unwrap_or(&private[i]);
            let s = sampling::run_traces_sampled_with(cfg, &bench.name, v, &mode, store);
            assert!(s.stats.total_ops > 0, "empty sweep point");
        }
        let wall = t0.elapsed().as_secs_f64();
        for store in shared.into_iter().chain(private.iter()) {
            warm_passes += store.warm_passes();
            hits += store.ckpt_hits();
            bytes += store.ckpt_bytes();
        }
        (wall, warm_passes, hits, bytes)
    };

    let (cold_wall, cold_warms, _, _) = sweep(42, None);
    let shared = CkptStore::new(None);
    let (reuse_wall, reuse_warms, hits, bytes) = sweep(43, Some(&shared));
    WarmReuseBench {
        configs: cfgs.len() as u64,
        cold_warm_passes: cold_warms,
        reuse_warm_passes: reuse_warms,
        ckpt_hits: hits,
        ckpt_bytes: bytes,
        cold_wall_s: cold_wall,
        reuse_wall_s: reuse_wall,
        speedup: cold_wall / reuse_wall.max(1e-12),
    }
}

/// Op budget per benchmark for the DSE section (kept modest: the point
/// of the measurement is the reuse ratio, not absolute sim depth).
const DSE_OPS: u64 = 3_000;
/// Grid points sampled to measure the naive per-point simulation wall.
const DSE_NAIVE_SAMPLE: usize = 3;

/// Sweeps the acceptance-criteria grid through the `dse` engine with
/// cold in-process caches (no disk, no journal), asserts the sweep is
/// deterministic, and anchors the naive-cost estimate by timing full
/// exact simulation of a few sampled points.
fn dse_bench() -> DseBench {
    use p10_core::dse::{self, DseConfig};
    use p10_core::runner::{Engine, EngineConfig};
    use p10_core::scenario;

    let grid = dse::default_grid();
    let suite = dse::default_suite();
    let cfg = DseConfig::new(42, DSE_OPS);
    let memo_only = || Engine::new(EngineConfig::default());

    let t0 = Instant::now();
    let cold = dse::run_dse(&memo_only(), &grid, &suite, &cfg);
    let sweep_wall = t0.elapsed().as_secs_f64();
    let again = dse::run_dse(&memo_only(), &grid, &suite, &cfg);
    assert_eq!(
        serde_json::to_string(&cold.result).expect("json"),
        serde_json::to_string(&again.result).expect("json"),
        "non-deterministic dse sweep"
    );

    // The naive baseline: exact per-point simulation of the whole suite,
    // sampled at evenly spaced grid points (different SMT depths land in
    // the sample, so the mean is honest about thread count).
    let stride = (grid.len() / DSE_NAIVE_SAMPLE).max(1);
    let sampled: Vec<&dse::DsePoint> = grid.iter().step_by(stride).take(DSE_NAIVE_SAMPLE).collect();
    let mut naive_total = 0.0;
    for p in &sampled {
        let t0 = Instant::now();
        for bench in &suite {
            let _ = scenario::run_benchmark(&p.core, bench, cfg.seed, cfg.max_ops);
        }
        naive_total += t0.elapsed().as_secs_f64();
    }
    let naive_point_wall = naive_total / sampled.len().max(1) as f64;
    let est_naive_wall = naive_point_wall * grid.len() as f64;
    DseBench {
        points: cold.result.stats.points,
        classes: cold.result.stats.classes,
        replay_hits: cold.result.stats.replay_hits,
        benches: cold.result.stats.benches,
        sweep_wall_s: sweep_wall,
        naive_point_wall_s: naive_point_wall,
        est_naive_wall_s: est_naive_wall,
        est_speedup: est_naive_wall / sweep_wall.max(1e-12),
    }
}

fn main() {
    let mut results = Vec::new();
    let mut synthesis = Vec::new();
    println!(
        "{:<18} {:<12} {:<16} {:>12} {:>10} {:>12} {:>10}",
        "workload", "scheduler", "mode", "sim cycles", "wall s", "Mcycles/s", "Mops/s"
    );
    let print_row = |r: &BenchResult| {
        println!(
            "{:<18} {:<12} {:<16} {:>12} {:>10.4} {:>12.2} {:>10.2}",
            r.workload, r.scheduler, r.mode, r.sim_cycles, r.wall_s, r.mcycles_per_s, r.mops_per_s
        );
    };
    for s in scenarios() {
        let (traces, synth) = acquire_traces(&s);
        println!(
            "{:<18} synth cold {:.4}s  warm {:.6}s  ({} trace ops)",
            s.name, synth.synth_cold_s, synth.synth_warm_s, synth.trace_ops
        );
        synthesis.push(synth);
        let mut per_sched = Vec::new();
        for sched in [Scheduler::Polled, Scheduler::EventDriven] {
            let r = measure(&s, &traces, sched, Mode::Unobserved);
            print_row(&r);
            per_sched.push(r);
        }
        let speedup = per_sched[0].wall_s / per_sched[1].wall_s;
        println!("{:<18} event-driven speedup: {speedup:.2}x", s.name);
        results.extend(per_sched);
        // Observed modes ride the event-driven span stream; comparing
        // their rows against the unobserved EventDriven row above shows
        // the cost of observation itself.
        for mode in [Mode::RtlsimDetailed, Mode::ApexWindowed] {
            let r = measure(&s, &traces, Scheduler::EventDriven, mode);
            print_row(&r);
            results.push(r);
        }
    }

    println!();
    println!("sampled execution ({SAMPLING_OPS} ops/workload, best of {SAMPLES})");
    println!(
        "{:<16} {:<22} {:>11} {:>9} {:>9} {:>8} {:>9} {:>8}",
        "workload", "mode", "detail ops", "wall s", "Mops/s", "speedup", "cpi err", "bound"
    );
    let sampling = sampling_rows();
    for r in &sampling {
        println!(
            "{:<16} {:<22} {:>11} {:>9.4} {:>9.2} {:>7.1}x {:>8.1}% {:>7.1}% {}",
            r.workload,
            r.mode,
            r.sim_ops,
            r.wall_s,
            r.mops_per_s,
            r.speedup_vs_exact,
            r.cpi_rel_err * 100.0,
            r.cpi_bound_rel * 100.0,
            if r.within_bound { "OK" } else { "VIOLATED" }
        );
    }

    println!();
    println!("design-space sweep ({DSE_OPS} ops/benchmark, cold in-process caches)");
    let dse = dse_bench();
    println!(
        "{} points, {} timing classes, {} pure replay ({:.1}%), {} benchmarks",
        dse.points,
        dse.classes,
        dse.replay_hits,
        dse.replay_hits as f64 / dse.points.max(1) as f64 * 100.0,
        dse.benches
    );
    println!(
        "sweep {:.3}s vs naive est {:.1}s ({:.4}s/point x {} points): {:.1}x",
        dse.sweep_wall_s, dse.est_naive_wall_s, dse.naive_point_wall_s, dse.points, dse.est_speedup
    );

    println!();
    println!(
        "warm-state checkpoint reuse ({SAMPLING_OPS} ops, {WARM_REUSE_CONFIGS} timing-only configs)"
    );
    let warm_reuse = warm_reuse_bench();
    println!(
        "private stores: {} warm passes, {:.3}s   shared store: {} warm pass(es), {} ckpt hits, {} bytes, {:.3}s   speedup {:.2}x",
        warm_reuse.cold_warm_passes,
        warm_reuse.cold_wall_s,
        warm_reuse.reuse_warm_passes,
        warm_reuse.ckpt_hits,
        warm_reuse.ckpt_bytes,
        warm_reuse.reuse_wall_s,
        warm_reuse.speedup
    );

    let report = BenchReport {
        schema: "p10sim-bench-pipeline/v6".to_owned(),
        samples_per_point: SAMPLES as u64,
        synthesis,
        results,
        sampling,
        dse,
        warm_reuse,
    };
    let out =
        std::env::var("P10SIM_BENCH_OUT").unwrap_or_else(|_| "BENCH_pipeline.json".to_owned());
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out, json).expect("write bench report");
    println!("wrote {out}");
}
