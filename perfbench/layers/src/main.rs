//! In-process per-layer driver of the p10sim benchmark.
//!
//! ```text
//! perfbench-layers --workload <all_cold|all_warm|sampling_1m|dse_60k> --seed N
//! ```
//!
//! Runs each layer's public entry points on inputs shaped like the named
//! `figures` workload (same suite members, same op budget) and times
//! every call as a span with a parent. It prints one JSON object: the
//! spans (so a reader can take each layer's self time as span minus
//! child spans), the derived per-layer rates, and how many of its own
//! consistency checks failed. `--seed` seeds workload synthesis: the
//! same seed gives the same traces and the same simulated statistics.

use p10_apex::run_apex;
use p10_core::dse::{self, PowerKnobs};
use p10_core::powerstudies::{build_dataset, Target};
use p10_core::runner::{self, EngineConfig};
use p10_core::scenario::ScenarioResult;
use p10_isa::TraceView;
use p10_power::{PowerModel, PowerReport};
use p10_powermgmt::replay::replay_power_series;
use p10_powermodel::{forward_select, input_sweep, FitOptions};
use p10_rtlsim::{run_detailed, Roi, ToggleDensity};
use p10_trace::simpoint::{bbv_intervals, simpoints_weighted};
use p10_uarch::{Core, CoreConfig, FunctionalWarmer, SimResult};
use p10_workloads::{arena, specint_like, Benchmark};
use serde_json::{json, Value};
use std::hint::black_box;
use std::time::Instant;

/// Observer runs (RTLSim, APEX) see at most this many ops of each trace:
/// the whole trace for the 60k-op workloads, a prefix for `sampling_1m`.
const OBSERVER_OPS: usize = 60_000;
/// `PowerModel::evaluate` calls per suite member (one call is ~µs).
const EVAL_REPS: u32 = 2_000;
/// Result-cache encode/decode round trips per suite member.
const CODEC_REPS: u32 = 50;
/// Activity-recorder window, as `figures dse` records.
const WINDOW_CYCLES: u64 = 512;
/// Inputs kept by the Fig. 11/12 fits, as `figures fig11` selects.
const FIT_INPUTS: usize = 12;
/// SimPoint clusters and BBV buckets, as the sampling engine uses.
const SIMPOINT_K: usize = 8;
const BBV_BUCKETS: usize = 64;

/// The suite members and op budget a `figures` workload simulates.
fn shape(workload: &str) -> Option<(Vec<Benchmark>, u64)> {
    match workload {
        "all_cold" | "all_warm" => Some((specint_like(), 60_000)),
        "dse_60k" => Some((dse::default_suite(), 60_000)),
        "sampling_1m" => Some((specint_like()[7..10].to_vec(), 1_000_000)),
        _ => None,
    }
}

struct Span {
    parent: Option<usize>,
    layer: &'static str,
    name: String,
    start: f64,
    end: f64,
}

/// Records spans in memory; nesting follows the call stack.
struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span; spans opened by `f` become its children.
    fn span<R>(&mut self, layer: &'static str, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        self.spans.push(Span {
            parent: self.open.last().copied(),
            layer,
            name: name.to_owned(),
            start: self.t0.elapsed().as_secs_f64(),
            end: 0.0,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end = self.t0.elapsed().as_secs_f64();
        r
    }

    /// Summed duration of every span with this exact name.
    fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .sum()
    }

    fn to_json(&self) -> Value {
        Value::Array(
            self.spans
                .iter()
                .map(|s| {
                    json!({
                        "parent": s.parent,
                        "layer": s.layer,
                        "name": s.name,
                        "start_s": s.start,
                        "end_s": s.end,
                    })
                })
                .collect(),
        )
    }
}

/// The consistency checks that failed.
#[derive(Default)]
struct Checks {
    failed: Vec<String>,
}

impl Checks {
    fn expect(&mut self, ok: bool, what: String) {
        if !ok {
            self.failed.push(what);
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn mcycles_per_s(runs: &[(f64, u64, f64)]) -> f64 {
    let cycles: u64 = runs.iter().map(|r| r.1).sum();
    let secs: f64 = runs.iter().map(|r| r.2).sum();
    ratio(cycles as f64 / 1e6, secs)
}

fn bare_run(cfg: &CoreConfig, view: &TraceView) -> SimResult {
    Core::new(cfg.clone()).run(vec![view.clone()], max_cycles(view))
}

/// The cycle cap `scenario::run_traces` gives a trace of this length.
fn max_cycles(view: &TraceView) -> u64 {
    view.len() as u64 * 8 + 100_000
}

fn elapsed_since(t: &Tracer, start: usize) -> f64 {
    let s = &t.spans[start];
    s.end - s.start
}

#[allow(clippy::too_many_lines)]
fn drive(t: &mut Tracer, benches: &[Benchmark], ops: u64, seed: u64, checks: &mut Checks) -> Value {
    let cfg = CoreConfig::power10();
    let model = PowerModel::for_config(&cfg);
    let knobs = PowerKnobs::grid();
    let mut synth_ops = 0u64;
    let mut warm_ops = 0u64;
    let mut windows_evaluated = 0u64;
    let mut windows_replayed = 0u64;
    let mut entry_bytes = 0u64;
    let mut observer_base_s = 0.0;
    // (ipc, cycles, run seconds) per suite member, for the dense/ff split.
    let mut runs: Vec<(f64, u64, f64)> = Vec::new();

    for b in benches {
        t.span("driver", &format!("case:{}", b.name), |t| {
            let w = t.span("workloads", "workloads.build", |_| b.workload(seed));
            let key = w.content_hash();
            let view = t.span("workloads", "workloads.synth", |_| {
                arena::global()
                    .view_or_synth(key, ops, |cap| w.trace_uncached(cap))
                    .expect("suite workloads execute")
            });
            synth_ops += view.len() as u64;
            let again = t.span("workloads", "workloads.hit", |_| {
                arena::global()
                    .view_or_synth(key, ops, |cap| w.trace_uncached(cap))
                    .expect("suite workloads execute")
            });
            checks.expect(
                again.shares_storage(&view) && again.len() == view.len(),
                format!("{}: arena re-request is not a zero-copy hit", b.name),
            );

            let run_span = t.spans.len();
            let sim = t.span("uarch", "uarch.run", |_| bare_run(&cfg, &view));
            let run_s = elapsed_since(t, run_span);
            runs.push((sim.ipc(), sim.activity.cycles, run_s));

            let warmer = t.span("uarch", "uarch.warm", |_| {
                let mut w = FunctionalWarmer::new(&cfg);
                w.observe(std::slice::from_ref(&view));
                w
            });
            warm_ops += warmer.ops();
            let blob = t.span("uarch", "uarch.ckpt_encode", |_| warmer.to_bytes());
            let back = t.span("uarch", "uarch.ckpt_decode", |_| {
                FunctionalWarmer::from_bytes(&cfg, &blob)
            });
            checks.expect(
                back.is_some_and(|w| w.to_bytes() == blob),
                format!("{}: warm checkpoint does not round-trip", b.name),
            );

            // Observers run on the same view as a bare baseline run.
            let obs_view = view.slice(0..view.len().min(OBSERVER_OPS));
            let base = if obs_view.len() == view.len() {
                observer_base_s += run_s;
                sim.clone()
            } else {
                let s = t.spans.len();
                let r = t.span("uarch", "uarch.run_prefix", |_| bare_run(&cfg, &obs_view));
                observer_base_s += elapsed_since(t, s);
                r
            };
            let cap = max_cycles(&obs_view);
            let rtl = t.span("rtlsim", "rtlsim.run", |_| {
                run_detailed(
                    &cfg,
                    vec![obs_view.clone()],
                    Roi::new(0, cap),
                    ToggleDensity::default(),
                )
            });
            checks.expect(
                rtl.sim.activity == base.activity,
                format!("{}: RTLSim observer changed the simulated activity", b.name),
            );
            let apex = t.span("apex", "apex.run", |_| {
                run_apex(&cfg, vec![obs_view.clone()], 4096, cap)
            });
            checks.expect(
                apex.sim.activity == base.activity,
                format!("{}: APEX observer changed the simulated activity", b.name),
            );

            // `record_benchmark` finds the ST trace (thread 0, `seed`) in
            // the arena, so this span is simulation plus recording only.
            let rec = t.span("dse", "dse.record", |_| {
                dse::record_benchmark(&cfg, b, seed, ops, WINDOW_CYCLES)
            });
            checks.expect(
                rec.sim.activity == sim.activity && rec.trace.total() == sim.activity,
                format!("{}: activity recording disagrees with the bare run", b.name),
            );

            t.span("power", "power.eval", |_| {
                for _ in 0..EVAL_REPS {
                    black_box(model.evaluate(black_box(&sim.activity)));
                }
            });
            // Price every knob setting from the recording, as one DSE
            // grid point does: window re-evaluation plus a WOF replay.
            let ref_active = model.evaluate(&sim.activity).active().max(1e-9);
            t.span("dse", "dse.replay", |t| {
                for k in &knobs {
                    let m = match k.style {
                        Some(style) => PowerModel::with_style(&cfg, style),
                        None => PowerModel::for_config(&cfg),
                    };
                    let series: Vec<f64> = t.span("power", "power.windows", |_| {
                        m.evaluate_windows(&rec.trace.windows)
                            .iter()
                            .map(PowerReport::active)
                            .collect()
                    });
                    windows_evaluated += series.len() as u64;
                    let out = t.span("powermgmt", "powermgmt.replay", |_| {
                        replay_power_series(&k.governor(), &series, ref_active)
                    });
                    windows_replayed += out.windows as u64;
                }
            });

            t.span("trace", "trace.kmeans", |_| {
                let interval = (view.len() / 64).max(2500);
                let bbvs = bbv_intervals(view.ops(), interval, BBV_BUCKETS);
                let weights: Vec<f64> = (0..bbvs.len())
                    .map(|i| ((view.len() - i * interval).min(interval)) as f64 / interval as f64)
                    .collect();
                black_box(simpoints_weighted(&bbvs, &weights, SIMPOINT_K, seed))
            });

            let result = ScenarioResult {
                workload: b.name.clone(),
                config: cfg.name.clone(),
                power: model.evaluate(&sim.activity),
                sim,
            };
            let text = t.span("runner", "runner.encode", |_| {
                let mut text = String::new();
                for _ in 0..CODEC_REPS {
                    text = serde_json::to_string(black_box(&result)).expect("result serializes");
                }
                text
            });
            entry_bytes += text.len() as u64;
            let decoded = t.span("runner", "runner.decode", |_| {
                let mut last = None;
                for _ in 0..CODEC_REPS {
                    last = serde_json::from_str::<ScenarioResult>(black_box(&text)).ok();
                }
                last
            });
            checks.expect(
                decoded.is_some_and(|d| serde_json::to_string(&d).ok().as_ref() == Some(&text)),
                format!("{}: cache entry does not round-trip", b.name),
            );
        });
    }

    let data = t.span("powermodel", "powermodel.dataset", |_| {
        build_dataset(
            &cfg,
            benches,
            &[seed, seed + 1],
            ops.min(OBSERVER_OPS as u64) / 2,
            WINDOW_CYCLES,
            Target::ActivePower,
        )
    });
    t.span("powermodel", "powermodel.fit", |_| {
        black_box(input_sweep(&data, FIT_INPUTS, FitOptions::default()));
        black_box(forward_select(&data, FIT_INPUTS, FitOptions::default()))
    });

    // High-IPC members exercise the live-cycle path, low-IPC (memory-
    // bound) members the fast-forward path.
    runs.sort_by(|a, b| b.0.total_cmp(&a.0));
    let (dense, ff) = runs.split_at(runs.len().div_ceil(2));
    let n = benches.len() as f64;
    let uarch_run_s = t.total("uarch.run");
    let synth_s = t.total("workloads.synth");
    json!({
        "workloads.synth_s": synth_s,
        "workloads.synth_mops_per_s": ratio(synth_ops as f64 / 1e6, synth_s),
        "uarch.run_s": uarch_run_s,
        "uarch.dense_mcycles_per_s": mcycles_per_s(dense),
        "uarch.ff_mcycles_per_s": mcycles_per_s(ff),
        "uarch.warm_mops_per_s": ratio(warm_ops as f64 / 1e6, t.total("uarch.warm")),
        "uarch.ckpt_encode_s": t.total("uarch.ckpt_encode"),
        "uarch.ckpt_decode_s": t.total("uarch.ckpt_decode"),
        "rtlsim.run_s": t.total("rtlsim.run"),
        "rtlsim.overhead_x": ratio(t.total("rtlsim.run"), observer_base_s),
        "apex.run_s": t.total("apex.run"),
        "apex.overhead_x": ratio(t.total("apex.run"), observer_base_s),
        "record.overhead_x": ratio(t.total("dse.record"), uarch_run_s),
        "power.eval_us": ratio(t.total("power.eval") * 1e6, f64::from(EVAL_REPS) * n),
        "power.windows_per_s": ratio(windows_evaluated as f64, t.total("power.windows")),
        "powermgmt.replay_windows_per_s":
            ratio(windows_replayed as f64, t.total("powermgmt.replay")),
        "powermodel.fit_s": t.total("powermodel.fit"),
        "trace.kmeans_s": t.total("trace.kmeans"),
        "runner.encode_us": ratio(t.total("runner.encode") * 1e6, f64::from(CODEC_REPS) * n),
        "runner.decode_us": ratio(t.total("runner.decode") * 1e6, f64::from(CODEC_REPS) * n),
        "runner.entry_bytes": ratio(entry_bytes as f64, n),
        "dse.record_s": t.total("dse.record"),
        "dse.replay_s": t.total("dse.replay"),
    })
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perfbench-layers --workload <all_cold|all_warm|sampling_1m|dse_60k> --seed N"
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut seed = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{a} needs a value")))
        };
        match a.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => {
                seed = Some(
                    value()
                        .parse::<u64>()
                        .unwrap_or_else(|_| usage("--seed must be a whole number")),
                );
            }
            _ => usage(&format!("unknown argument {a}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let seed = seed.unwrap_or_else(|| usage("--seed is required"));
    let (benches, ops) =
        shape(&workload).unwrap_or_else(|| usage(&format!("unknown workload {workload}")));

    // Memo-only and serial: nothing touches disk, and every span is the
    // calling thread's own work.
    runner::configure(EngineConfig {
        jobs: 1,
        disk_cache: None,
        progress: false,
    });
    let mut tracer = Tracer::new();
    let mut checks = Checks::default();
    let metrics = tracer.span("driver", "driver", |t| {
        drive(t, &benches, ops, seed, &mut checks)
    });
    for f in &checks.failed {
        eprintln!("check failed: {f}");
    }
    let out = json!({
        "workload": workload,
        "seed": seed,
        "failed_checks": checks.failed.len(),
        "metrics": metrics,
        "spans": tracer.to_json(),
    });
    println!("{out}");
}
