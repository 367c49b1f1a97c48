//! Regenerates every table and figure of the paper.
//!
//! Usage:
//! ```text
//! figures <experiment> [--json] [--ops N] [--out DIR] [--jobs N] [--no-cache] [--trace-out FILE] [--sampling MODE]
//! ```
//! Each experiment is one entry of [`REGISTRY`]: a `compute` that returns
//! a serializable result and a `render` that prints it as text. `--json`
//! prints the result as JSON instead, and `--out DIR` also writes that
//! JSON, from the same run, to `DIR/<exp>.json`. `<experiment>` is an
//! entry's name (an unknown one prints them all), `obsreport` or `all`;
//! `dse`, `profile` and `sampling` run on demand only, which keeps
//! `all`'s stdout stable across additions. `--jobs N` sets the
//! worker-pool width (default: all CPUs) and `--no-cache` disables the
//! on-disk result cache (`target/p10sim-cache`, override with
//! `P10SIM_CACHE_DIR`); see `p10_core::runner`. Every experiment but
//! `apex-speedup` and `sampling` (which time the host) and `dse` (which
//! keeps its own journal) stores its whole result there, so a warm
//! re-run only decodes it.
//! `--sampling MODE` (or `P10SIM_SAMPLING`) selects sampled execution
//! for every simulation point routed through the engine: `exact`
//! (default, byte-identical reference), `simpoints:INTERVAL:K[:WARMUP]`,
//! or `bound:PCT` (grow the cluster count until the reported error bound
//! is at most PCT percent) — see `p10_core::sampling`. Sampled runs
//! persist warm-state checkpoints under the engine's disk cache
//! (override the directory with `P10SIM_CKPT_DIR`).
//! `--trace-out FILE` (or `P10SIM_TRACE`) writes an event trace via
//! `p10_obs` — JSON lines by default, or a Perfetto-loadable trace-event
//! file with `--trace-format chrome` (or `P10SIM_TRACE_FORMAT`); either
//! way an end-of-run summary table lands on stderr, and `--obs-json FILE`
//! (or `P10SIM_OBS_JSON`) also writes it as one JSON object.
//!
//! Every run also appends one `RunRecord` JSON line to the persistent
//! run ledger (`target/p10sim-ledger/`, overridable with `P10SIM_LEDGER`
//! or `--ledger-dir`, disabled with `--no-ledger`) — see
//! `p10_obs::ledger`. `obsreport` reads that history back: it prints the
//! latest run's trends against a baseline (`--baseline`; default: the
//! previous comparable run) and with `--gate PCT` exits non-zero when the
//! latest run regressed more than `PCT` percent (deltas under `--min-s`
//! seconds never gate).
//!
//! Stdout discipline: ledger, trace, and obs-json outputs never touch
//! experiment stdout — `figures all` stdout is byte-identical with all
//! of them enabled or disabled (wall-clock data lives on stderr and in
//! the ledger only).

use p10_bench::{suite, FULL_OPS};
use p10_core::dse;
use p10_core::powerstudies::{
    build_dataset, build_datasets, run_fig10, run_fig11, run_fig12, run_fig15a, run_fig15b, Target,
};
use p10_core::runner;
use p10_core::sampling::{self, SamplingMode};
use p10_core::{
    ablation, flush, gemm, inference, rasstudy, samplingstudy, scenario, socket, table1, tracestudy,
};
use p10_kernels::models::{bert_large, resnet50};
use p10_powermgmt::wof;
use p10_uarch::CoreConfig;
use p10_workloads::chopstix;
use serde::{Deserialize, Serialize};

struct Opts {
    json: bool,
    ops: u64,
    out: Option<std::path::PathBuf>,
    jobs: usize,
    no_cache: bool,
    trace_out: Option<std::path::PathBuf>,
    trace_format: Option<p10_obs::TraceFormat>,
    obs_json: Option<std::path::PathBuf>,
    ledger_dir: Option<std::path::PathBuf>,
    no_ledger: bool,
    baseline: Option<String>,
    gate: Option<f64>,
    min_s: f64,
    sampling: Option<SamplingMode>,
}

fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: figures <experiment> [--json] [--ops N] [--out DIR] [--jobs N] [--no-cache] [--trace-out FILE] [--trace-format jsonl|chrome] [--obs-json FILE] [--ledger-dir DIR] [--no-ledger] [--sampling MODE]"
    );
    eprintln!(
        "       figures obsreport [--ledger-dir DIR] [--baseline SEL] [--gate PCT] [--min-s SECS]"
    );
    eprintln!("sampling modes: exact | simpoints:INTERVAL:K[:WARMUP] | bound:PCT (0 < PCT <= 100)");
    let names: Vec<&str> = REGISTRY.iter().map(|e| e.name()).collect();
    eprintln!("experiments: {} obsreport all", names.join(" "));
    std::process::exit(2);
}

/// Parses a `--trace-format` / `P10SIM_TRACE_FORMAT` value.
fn parse_trace_format(v: &str) -> p10_obs::TraceFormat {
    match v {
        "jsonl" | "json-lines" => p10_obs::TraceFormat::JsonLines,
        "chrome" => p10_obs::TraceFormat::Chrome,
        other => usage_error(&format!(
            "invalid trace format '{other}' (expected jsonl or chrome)"
        )),
    }
}

/// Parses the command line strictly: malformed values and unknown
/// experiments or flags abort with a clear message instead of silently
/// running something else.
fn parse_args(args: &[String]) -> (String, Opts) {
    let mut what: Option<String> = None;
    let mut opts = Opts {
        json: false,
        ops: FULL_OPS,
        out: None,
        jobs: 0,
        no_cache: false,
        trace_out: None,
        trace_format: None,
        obs_json: None,
        ledger_dir: None,
        no_ledger: false,
        baseline: None,
        gate: None,
        min_s: 0.05,
        sampling: None,
    };
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        let mut flag_value = |name: &str| -> String {
            i += 1;
            args.get(i)
                .unwrap_or_else(|| usage_error(&format!("{name} requires a value")))
                .clone()
        };
        match arg {
            "--json" => opts.json = true,
            "--no-cache" => opts.no_cache = true,
            "--ops" => {
                let v = flag_value("--ops");
                opts.ops = v
                    .parse()
                    .unwrap_or_else(|_| usage_error(&format!("invalid --ops value '{v}'")));
                if opts.ops == 0 {
                    usage_error("--ops must be positive");
                }
            }
            "--jobs" => {
                let v = flag_value("--jobs");
                opts.jobs = v
                    .parse()
                    .unwrap_or_else(|_| usage_error(&format!("invalid --jobs value '{v}'")));
                if opts.jobs == 0 {
                    usage_error("--jobs must be positive");
                }
            }
            "--out" => opts.out = Some(std::path::PathBuf::from(flag_value("--out"))),
            "--trace-out" => {
                opts.trace_out = Some(std::path::PathBuf::from(flag_value("--trace-out")));
            }
            "--trace-format" => {
                opts.trace_format = Some(parse_trace_format(&flag_value("--trace-format")));
            }
            "--obs-json" => {
                opts.obs_json = Some(std::path::PathBuf::from(flag_value("--obs-json")));
            }
            "--ledger-dir" => {
                opts.ledger_dir = Some(std::path::PathBuf::from(flag_value("--ledger-dir")));
            }
            "--no-ledger" => opts.no_ledger = true,
            "--baseline" => opts.baseline = Some(flag_value("--baseline")),
            "--gate" => {
                let v = flag_value("--gate");
                opts.gate = Some(
                    v.parse()
                        .ok()
                        .filter(|p: &f64| p.is_finite() && *p >= 0.0)
                        .unwrap_or_else(|| usage_error(&format!("invalid --gate value '{v}'"))),
                );
            }
            "--min-s" => {
                let v = flag_value("--min-s");
                opts.min_s = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .unwrap_or_else(|| usage_error(&format!("invalid --min-s value '{v}'")));
            }
            "--sampling" => {
                let v = flag_value("--sampling");
                opts.sampling = Some(SamplingMode::parse(&v).unwrap_or_else(|e| usage_error(&e)));
            }
            flag if flag.starts_with('-') => usage_error(&format!("unknown flag '{flag}'")),
            exp => {
                if what.is_some() {
                    usage_error(&format!("more than one experiment given ('{exp}')"));
                }
                if exp != "all" && exp != "obsreport" && !REGISTRY.iter().any(|e| e.name() == exp) {
                    usage_error(&format!("unknown experiment '{exp}'"));
                }
                what = Some(exp.to_owned());
            }
        }
        i += 1;
    }
    let what = what.unwrap_or_else(|| "all".to_owned());
    if what != "obsreport" && (opts.gate.is_some() || opts.baseline.is_some()) {
        usage_error("--gate/--baseline only apply to the obsreport experiment");
    }
    (what, opts)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (what, opts) = parse_args(&args);
    let started_unix_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64);

    // obsreport is pure ledger analysis: no recorder, engine, or
    // simulation — read the history, report, and exit.
    if what == "obsreport" {
        std::process::exit(do_obsreport(&opts));
    }

    // Observability first, so every later span/counter lands in the same
    // recorder. The trace sink comes from --trace-out, else P10SIM_TRACE;
    // its format from --trace-format, else P10SIM_TRACE_FORMAT.
    let trace_path = opts
        .trace_out
        .clone()
        .or_else(|| std::env::var_os("P10SIM_TRACE").map(std::path::PathBuf::from));
    let trace_format = opts
        .trace_format
        .or_else(|| {
            std::env::var("P10SIM_TRACE_FORMAT")
                .ok()
                .map(|v| parse_trace_format(&v))
        })
        .unwrap_or_default();
    p10_obs::init(&p10_obs::ObsConfig {
        trace_path,
        trace_format,
    });
    p10_obs::set_thread_name("main");

    // Sampling mode: --sampling wins, then P10SIM_SAMPLING, then exact.
    // Installed once before any experiment runs; the engine's benchmark
    // dispatch consults it for every simulation point.
    let sampling_mode = opts.sampling.or_else(|| {
        std::env::var("P10SIM_SAMPLING")
            .ok()
            .map(|v| SamplingMode::parse(&v).unwrap_or_else(|e| usage_error(&e)))
    });
    let sampling_key = sampling_mode.map_or_else(|| "exact".to_owned(), |m| m.describe());
    if let Some(mode) = sampling_mode {
        sampling::set_mode(mode);
        if !mode.is_exact() {
            eprintln!("[figures] sampled execution: {}", mode.describe());
        }
    }

    // All experiment drivers run on the shared engine: a worker pool plus
    // in-process memo and (unless --no-cache) the on-disk result cache.
    runner::configure(runner::EngineConfig {
        jobs: opts.jobs,
        disk_cache: (!opts.no_cache).then(runner::default_cache_dir),
        progress: true,
    });
    eprintln!(
        "[figures] {} worker(s), disk cache {}, code fingerprint {}",
        runner::engine().jobs(),
        if opts.no_cache {
            "off".to_owned()
        } else {
            runner::default_cache_dir().display().to_string()
        },
        runner::fingerprint()
    );

    let experiments: Vec<&dyn Run> = REGISTRY
        .iter()
        .copied()
        .filter(|e| e.name() == what || (what == "all" && e.in_all()))
        .collect();

    for e in &experiments {
        let name = e.name();
        let sp = p10_obs::span(name);
        print!("{}", e.header());
        let (json, text) = e.run(&opts);
        if opts.json {
            println!("{json}");
        } else {
            print!("{text}");
        }
        let secs = sp.finish();
        eprintln!("[figures] {name}: {secs:.2}s");
        if let Some(dir) = &opts.out {
            let path = dir.join(format!("{name}.json"));
            std::fs::create_dir_all(dir).expect("create --out dir");
            std::fs::write(&path, format!("{json}\n")).expect("write artifact");
            eprintln!("[figures] artifact: {}", path.display());
        }
    }

    // Derived shares, each shown as a gauge in the summary when its
    // counters moved: observed cycles delivered as closed-form spans
    // instead of live steps; trace requests served zero-copy from the
    // arena; trace ops simulated directly rather than reconstituted from
    // a cluster representative (1.0 = exact execution); and warm
    // prefixes restored from a saved checkpoint instead of replayed.
    let s = p10_obs::summary();
    let total = |name: &str| {
        s.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    };
    for (gauge, part, rest) in [
        (
            "sim.span_hit_rate",
            "sim.observed_span_cycles",
            "sim.observed_live_cycles",
        ),
        (
            "trace.arena.hit_rate",
            "trace.arena.hits",
            "trace.arena.misses",
        ),
        (
            "sim.sample.coverage",
            "sim.sample.simulated_ops",
            "sim.sample.skipped_ops",
        ),
        (
            "sampling.ckpt.hit_rate",
            "sampling.ckpt_hits",
            "sampling.ckpt_misses",
        ),
    ] {
        let (part, rest) = (total(part), total(rest));
        if part + rest > 0 {
            #[allow(clippy::cast_precision_loss)]
            p10_obs::gauge(gauge, part as f64 / (part + rest) as f64);
        }
    }

    // Worker utilization: each worker slot's busy seconds as a fraction
    // of total run wall time (derived from the busy_us counters the
    // runner records per pool).
    if s.total_wall_s > 0.0 {
        for c in &s.counters {
            if let Some(slot) = c
                .name
                .strip_prefix("engine.")
                .and_then(|r| r.strip_suffix(".busy_us"))
            {
                #[allow(clippy::cast_precision_loss)]
                p10_obs::gauge(
                    &format!("runner.{slot}.busy_frac"),
                    c.value as f64 / 1e6 / s.total_wall_s,
                );
            }
        }
    }

    // Host memory: the process's peak resident set, in the same unit
    // (KiB / 1024) as `getrusage`'s `ru_maxrss`. Linux only; elsewhere
    // the gauge is absent.
    if let Some(mb) = peak_rss_mb() {
        p10_obs::gauge("process.peak_rss_mb", mb);
    }

    // Flush thread-local buffers and print the run summary (phase wall
    // times, cache layer hits, per-worker job counts) on stderr — stdout
    // stays reserved for the deterministic experiment output.
    let final_summary = p10_obs::summary();
    eprint!("{}", p10_obs::render_summary(&final_summary));

    // Machine-readable mirrors of that summary: --obs-json (one JSON
    // object) and the persistent run ledger (one RunRecord line).
    let obs_json = opts
        .obs_json
        .clone()
        .or_else(|| std::env::var_os("P10SIM_OBS_JSON").map(std::path::PathBuf::from));
    if let Some(path) = obs_json {
        match serde_json::to_string(&final_summary) {
            Ok(line) => {
                if let Err(e) = std::fs::write(&path, format!("{line}\n")) {
                    eprintln!("[figures] cannot write obs json {}: {e}", path.display());
                }
            }
            Err(e) => eprintln!("[figures] cannot serialize obs summary: {e}"),
        }
    }
    if !opts.no_ledger {
        let eng_cfg = runner::engine().config();
        let names: Vec<&str> = experiments.iter().map(|e| e.name()).collect();
        let identity = p10_obs::ledger::RunIdentity {
            experiment: what.clone(),
            config_text: format!(
                "jobs={}|disk_cache={}|sampling={sampling_key}",
                eng_cfg.jobs,
                eng_cfg.disk_cache.is_some(),
            ),
            workload_text: format!("{}|ops={}", names.join(","), opts.ops),
            sampling_key: sampling_key.clone(),
            ops: opts.ops,
            jobs: eng_cfg.jobs as u64,
            started_unix_ms,
        };
        let record = p10_obs::ledger::RunRecord::from_summary(&identity, final_summary);
        let dir = opts
            .ledger_dir
            .clone()
            .unwrap_or_else(p10_obs::ledger::default_dir);
        match p10_obs::ledger::append(&dir, &record) {
            Ok(path) => eprintln!(
                "[figures] ledger: run {} appended to {}",
                record.run_id,
                path.display()
            ),
            Err(e) => eprintln!("[figures] ledger append failed ({}): {e}", dir.display()),
        }
    }

    // Last: a Chrome-format trace buffers in memory and is written here.
    p10_obs::finalize();
}

/// The `VmHWM` (peak resident set) line of `/proc/self/status`, in MB
/// (KiB / 1024); `None` where that file does not exist.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// Selects the baseline run for `obsreport`: `--baseline` as a 1-based
/// index into the comparable pool (1 = oldest) or a `run_id` prefix;
/// without `--baseline`, the most recent comparable prior run.
fn pick_baseline<'a>(
    pool: &[&'a p10_obs::ledger::RunRecord],
    selector: Option<&str>,
) -> Result<Option<&'a p10_obs::ledger::RunRecord>, String> {
    let Some(sel) = selector else {
        return Ok(pool.last().copied());
    };
    if let Ok(idx) = sel.parse::<usize>() {
        return idx
            .checked_sub(1)
            .and_then(|i| pool.get(i).copied())
            .map(Some)
            .ok_or_else(|| {
                format!(
                    "--baseline index {sel} out of range (pool has {} comparable runs)",
                    pool.len()
                )
            });
    }
    pool.iter()
        .find(|r| r.run_id.starts_with(sel))
        .copied()
        .map(Some)
        .ok_or_else(|| format!("no comparable run with id prefix '{sel}'"))
}

/// The `obsreport` driver: reads ledger history, prints the latest run's
/// wall-time/cache/coverage trends against a baseline, and applies the
/// `--gate` regression check. Returns the process exit code.
fn do_obsreport(opts: &Opts) -> i32 {
    use p10_obs::ledger;
    let dir = opts.ledger_dir.clone().unwrap_or_else(ledger::default_dir);
    let runs = match ledger::read(&dir) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: cannot read ledger {}: {e}", dir.display());
            return 1;
        }
    };
    println!("=== obsreport: {} ({} runs) ===", dir.display(), runs.len());
    let Some(latest) = runs.last() else {
        println!("ledger is empty; run any `figures` experiment first");
        return i32::from(opts.gate.is_some());
    };
    let prior = &runs[..runs.len() - 1];
    let pool = ledger::comparable(prior, latest);
    println!(
        "latest: run {}  experiment={} ops={} sampling={} jobs={}  [{} {}, {} cpus]",
        latest.run_id,
        latest.experiment,
        latest.ops,
        latest.sampling_key,
        latest.jobs,
        latest.build.profile,
        latest.machine.arch,
        latest.machine.cpus
    );

    // Short history of comparable runs, oldest first (latest included).
    println!(
        "history ({} comparable runs, oldest first):",
        pool.len() + 1
    );
    println!(
        "  {:>3} {:<16} {:>9} {:>7} {:>7} {:>9} {:>11} {:>5}",
        "#", "run", "wall", "cache%", "arena%", "coverage", "ckpt h/m", "warms"
    );
    for (i, r) in pool.iter().chain(std::iter::once(&latest)).enumerate() {
        println!(
            "  {:>3} {:<16} {:>8.2}s {:>6.1}% {:>6.1}% {:>9.3} {:>5}/{:<5} {:>5}",
            i + 1,
            r.run_id,
            r.wall_s,
            r.cache.hit_rate() * 100.0,
            r.arena.hit_rate * 100.0,
            r.sampling.coverage,
            r.sampling.ckpt_hits,
            r.sampling.ckpt_misses,
            r.sampling.warm_passes
        );
    }

    let baseline = match pick_baseline(&pool, opts.baseline.as_deref()) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let Some(baseline) = baseline else {
        println!("no comparable prior run to compare against");
        if opts.gate.is_some() {
            eprintln!("error: --gate needs a comparable baseline run in the ledger");
            return 1;
        }
        return 0;
    };

    // Per-phase wall-time trend vs the baseline.
    println!("trend vs baseline {}:", baseline.run_id);
    println!(
        "  {:<46} {:>9} {:>9} {:>8}",
        "phase", "baseline", "latest", "delta"
    );
    let delta_pct = |base: f64, new: f64| {
        if base > 0.0 {
            (new / base - 1.0) * 100.0
        } else {
            0.0
        }
    };
    for p in &latest.summary.phases {
        if let Some(base) = baseline.phase_wall_s(&p.name) {
            println!(
                "  {:<46} {:>8.2}s {:>8.2}s {:>+7.1}%",
                p.name,
                base,
                p.wall_s,
                delta_pct(base, p.wall_s)
            );
        }
    }
    println!(
        "  {:<46} {:>8.2}s {:>8.2}s {:>+7.1}%",
        "total",
        baseline.wall_s,
        latest.wall_s,
        delta_pct(baseline.wall_s, latest.wall_s)
    );
    println!(
        "cache hit rate {:.1}% -> {:.1}%   arena hit rate {:.1}% -> {:.1}%   coverage {:.3} -> {:.3}",
        baseline.cache.hit_rate() * 100.0,
        latest.cache.hit_rate() * 100.0,
        baseline.arena.hit_rate * 100.0,
        latest.arena.hit_rate * 100.0,
        baseline.sampling.coverage,
        latest.sampling.coverage
    );
    println!(
        "ckpt hits {} -> {}   misses {} -> {}   bytes {} -> {}   warm passes {} -> {}",
        baseline.sampling.ckpt_hits,
        latest.sampling.ckpt_hits,
        baseline.sampling.ckpt_misses,
        latest.sampling.ckpt_misses,
        baseline.sampling.ckpt_bytes,
        latest.sampling.ckpt_bytes,
        baseline.sampling.warm_passes,
        latest.sampling.warm_passes
    );
    for w in &latest.workers {
        println!(
            "worker {:<10} jobs={:<4} busy={:.2}s ({:.0}% of wall)",
            w.worker,
            w.jobs,
            w.busy_s,
            w.busy_frac * 100.0
        );
    }

    let Some(pct) = opts.gate else { return 0 };
    let regressions = ledger::gate(baseline, latest, pct, opts.min_s);
    if regressions.is_empty() {
        println!(
            "gate: PASS (no wall-time regression beyond {pct}% and {:.2}s)",
            opts.min_s
        );
        return 0;
    }
    for r in &regressions {
        println!(
            "gate: REGRESSION {} {:.2}s -> {:.2}s ({:+.1}% > {pct}%)",
            r.phase, r.baseline_s, r.latest_s, r.delta_pct
        );
    }
    println!("gate: FAIL ({} regression(s))", regressions.len());
    1
}

/// One experiment: compute a result, then print it as JSON or as text.
struct Experiment<R> {
    name: &'static str,
    /// The header's title and paper reference.
    title: &'static str,
    paper: &'static str,
    /// Whether `figures all` runs it.
    in_all: bool,
    /// Whether its whole result goes through the engine cache (see
    /// [`experiment`]); entries that time the host or keep their own
    /// store say no.
    cached: bool,
    compute: fn(&Opts) -> R,
    render: fn(&R) -> String,
    /// The `--json` payload, also written by `--out`.
    json: fn(&R) -> String,
}

/// An [`Experiment`] with its result type erased, as `main` runs it.
trait Run: Sync {
    fn name(&self) -> &'static str;

    fn in_all(&self) -> bool;

    fn header(&self) -> String;

    /// Computes the result, through the engine cache when the entry is
    /// cached, and returns its JSON payload and its text.
    fn run(&self, o: &Opts) -> (String, String);

    /// The JSON payload and text of a result read back from `json`.
    #[cfg(test)]
    fn reprint(&self, json: &str) -> (String, String);
}

impl<R> Run for Experiment<R>
where
    R: Clone + Serialize + Deserialize + Send + Sync + 'static,
{
    fn name(&self) -> &'static str {
        self.name
    }

    fn in_all(&self) -> bool {
        self.in_all
    }

    fn header(&self) -> String {
        format!(
            "\n=== {} ===\n    paper reference: {}\n",
            self.title, self.paper
        )
    }

    fn run(&self, o: &Opts) -> (String, String) {
        let compute = || (self.compute)(o);
        let r = if self.cached {
            experiment(self.name, o.ops, compute)
        } else {
            compute()
        };
        ((self.json)(&r), (self.render)(&r))
    }

    #[cfg(test)]
    fn reprint(&self, json: &str) -> (String, String) {
        let r: R = serde_json::from_str(json)
            .unwrap_or_else(|e| panic!("{}: golden JSON does not parse: {e}", self.name));
        ((self.json)(&r), (self.render)(&r))
    }
}

/// An experiment's whole result through the engine cache, so a warm
/// re-run only decodes it. The key is the experiment's name, the op
/// budget and the sampling mode: every other input is in the source,
/// and the engine prefixes the key with the code fingerprint.
fn experiment<T>(name: &str, ops: u64, compute: impl FnOnce() -> T) -> T
where
    T: Clone + Serialize + Deserialize + Send + Sync + 'static,
{
    let mode = sampling::active().map_or_else(|| "exact".to_owned(), |m| m.describe());
    runner::cached(
        name,
        &format!("experiment|{name}|ops={ops}|sampling={mode}"),
        compute,
    )
}

fn pretty<T: Serialize>(r: &T) -> String {
    serde_json::to_string_pretty(r).expect("json")
}

/// One pretty document per item, as `fig6` and `socket` print per model.
fn pretty_each<T: Serialize>(items: &[T]) -> String {
    let docs: Vec<String> = items.iter().map(pretty).collect();
    docs.join("\n")
}

/// The inference models of Fig. 6 and the socket projections.
fn models() -> [p10_kernels::models::ModelGraph; 2] {
    [resnet50(100), bert_large(8, 384)]
}

/// Fig. 6: one end-to-end inference run per model.
fn fig6(o: &Opts) -> Vec<inference::Fig6Model> {
    runner::run_jobs_par(&models(), |_, m| inference::run_fig6(m, o.ops / 2))
}

fn fig11_dataset(o: &Opts) -> p10_powermodel::Dataset {
    build_dataset(
        &CoreConfig::power10(),
        &suite(),
        &[1, 2],
        o.ops / 2,
        512,
        Target::ActivePower,
    )
}

/// Every experiment, in `figures all` order; on-demand ones last.
static REGISTRY: &[&dyn Run] = &[
    &Experiment {
        name: "table1",
        title: "Table I — chip features & efficiency projections",
        paper: "2.6x core perf/W, up to 3x socket",
        in_all: true,
        cached: true,
        compute: |o| table1::run_table1(&suite(), 42, o.ops),
        render: |t| {
            format!(
                "SMT per core                  : {}\n\
                 L2 per SMT8 core              : {:.1} MiB (paper: 2 MiB)\n\
                 MMU (TLB) ratio vs POWER9     : {:.1}x (paper: 4x)\n\
                 Core perf ratio               : {:.2}x (paper: ~1.3x)\n\
                 Core power ratio              : {:.2}x (paper: ~0.5x)\n\
                 Core performance/watt         : {:.2}x (paper: 2.6x)\n\
                 Socket-view efficiency (SMT2) : {:.2}x (paper: up to 3x)\n",
                t.smt_per_core,
                t.l2_per_core_mib,
                t.mmu_ratio,
                t.perf_ratio,
                t.power_ratio,
                t.perf_per_watt_core,
                t.socket_efficiency
            )
        },
        json: pretty,
    },
    &Experiment {
        name: "fig2",
        title: "Fig. 2 — optimal pipeline depth",
        paper: "optimum stable at 27 FO4 for 0.5x-1.0x power targets",
        in_all: true,
        cached: true,
        compute: |_| p10_pipedepth::run_fig2(&p10_pipedepth::DepthParams::default(), &[0.25]),
        render: |f| {
            let mut s = String::new();
            for &t in &f.power_targets {
                s += &format!("power target {t:.2}x: optimal FO4 = {}\n", f.optimal_fo4(t));
            }
            s += "curve (target=1.0): fo4 -> BIPS\n";
            let curve = f
                .points
                .iter()
                .filter(|p| (p.power_target - 1.0).abs() < 1e-9);
            for p in curve.step_by(4) {
                s += &format!("  {:>4.0}  {:.3}\n", p.fo4, p.bips);
            }
            s
        },
        json: pretty,
    },
    &Experiment {
        name: "fig4",
        title: "Fig. 4 — per-design-change performance gains",
        paper: "SMT8 SPECint: branch 4%, lat+BW 10%, L2 9%, decode+VSX 5%, queues 4%",
        in_all: true,
        cached: true,
        compute: |o| ablation::run_fig4(&suite(), 42, o.ops / 2),
        render: |f| {
            let mut s =
                "group                      ST      SMT      max  max workload\n".to_owned();
            for r in &f.rows {
                s += &format!(
                    "{:<20} {:>7.1}% {:>7.1}% {:>7.1}%  {}\n",
                    r.group,
                    r.st_gain * 100.0,
                    r.smt_gain * 100.0,
                    r.max_gain * 100.0,
                    r.max_workload
                );
            }
            s
        },
        json: pretty,
    },
    &Experiment {
        name: "fig5",
        title: "Fig. 5 — DGEMM flops/cycle & core power",
        paper: "P10 VSU 1.95x @ -32.2%; P10 MMA 5.47x @ -24.1%; 62.1%/87.1% of peak",
        in_all: true,
        cached: true,
        compute: |o| gemm::run_fig5(o.ops),
        render: |f| {
            let mut s = String::new();
            for p in [&f.p9_vsu, &f.p10_vsu, &f.p10_mma] {
                s += &format!(
                    "{:<24} {:>6.2} flops/cyc ({:>5.1}% of peak)  core power {:>7.1}\n",
                    p.label,
                    p.flops_per_cycle,
                    p.peak_utilization * 100.0,
                    p.core_power
                );
            }
            s + &format!(
                "VSU speedup {:.2}x (paper 1.95x)   power {:+.1}% (paper -32.2%)\n\
                 MMA speedup {:.2}x (paper 5.47x)   power {:+.1}% (paper -24.1%)\n",
                f.vsu_speedup(),
                f.vsu_power_delta() * 100.0,
                f.mma_speedup(),
                f.mma_power_delta() * 100.0
            )
        },
        json: pretty,
    },
    &Experiment {
        name: "fig6",
        title: "Fig. 6 — end-to-end inference",
        paper: "ResNet-50: 2.25x/3.55x; BERT-Large: 2.08x/3.64x (no-MMA/MMA)",
        in_all: true,
        cached: true,
        compute: fig6,
        render: |figs| {
            let mut s = String::new();
            for f in figs {
                s += &format!("-- {} --\n", f.model);
                s += "config           instructions       cycles     CPI GEMM-ratio\n";
                for r in [&f.p9, &f.p10_no_mma, &f.p10_mma] {
                    s += &format!(
                        "{:<16} {:>12.3e} {:>12.3e} {:>7.3} {:>10.2}\n",
                        r.config,
                        r.instructions,
                        r.cycles,
                        r.cpi(),
                        r.gemm_inst_ratio
                    );
                }
                s += &format!(
                    "speedups: no-MMA {:.2}x, MMA {:.2}x\n",
                    f.speedup_no_mma(),
                    f.speedup_mma()
                );
            }
            s
        },
        json: |figs| pretty_each(figs),
    },
    &Experiment {
        name: "socket",
        title: "Socket-level AI projections",
        paper: "up to 10x FP32 and 21x INT8 over POWER9",
        in_all: true,
        cached: true,
        compute: |o| {
            // The FP32 runs are Fig. 6's, read through its cache entry.
            let figs = experiment("fig6", o.ops, || fig6(o));
            let (p10, scaling) = (CoreConfig::power10(), socket::SocketScaling::default());
            runner::run_jobs_par(&models(), |i, model| {
                let int8 = inference::compose_int8(model, &p10, o.ops / 2);
                socket::project_socket_measured(&figs[i], &int8, &scaling)
            })
        },
        render: |projections| {
            let mut s = String::new();
            for p in projections {
                s += &format!(
                    "{:<12} core {:.2}x  socket FP32 {:.1}x (paper up to 10x)  INT8 {:.1}x (paper up to 21x)\n",
                    p.model, p.core_speedup, p.fp32_socket_speedup, p.int8_socket_speedup
                );
            }
            s
        },
        json: |projections| pretty_each(projections),
    },
    &Experiment {
        name: "fig10",
        title: "Fig. 10 — core-model vs chip-model power/IPC scatter",
        paper: "memory-bound simpoints diverge between models",
        in_all: true,
        cached: true,
        compute: |o| run_fig10(&suite(), 4, o.ops / 10),
        render: |pts| {
            let mut s = "bench          snip  model      IPC core power\n".to_owned();
            for p in pts {
                let model = match p.model {
                    p10_apex::ApexModel::Core => "core",
                    p10_apex::ApexModel::Chip => "chip",
                };
                s += &format!(
                    "{:<14} {:>4} {:>6} {:>8.3} {:>10.1}\n",
                    p.bench, p.snippet, model, p.ipc, p.core_power
                );
            }
            s
        },
        json: pretty,
    },
    &Experiment {
        name: "fig11",
        title: "Fig. 11 — M1-linked power model error vs #inputs",
        paper: "error falls with inputs; <2.5% active at max inputs",
        in_all: true,
        cached: true,
        compute: |o| {
            let data = runner::timed("fig11 dataset", || fig11_dataset(o));
            runner::timed("fig11 regression", || run_fig11(&data, 12))
        },
        render: |curves| {
            let mut s = String::new();
            for c in curves {
                s += &format!("-- {} --\n", c.label);
                for p in &c.points {
                    s += &format!(
                        "  inputs {:>2}: test err {:>6.2}%  train err {:>6.2}%\n",
                        p.inputs, p.test_error_pct, p.train_error_pct
                    );
                }
            }
            s
        },
        json: pretty,
    },
    &Experiment {
        name: "fig12",
        title: "Fig. 12 — top-down vs bottom-up power models",
        paper: "models differ by 3.42% on average; 72 events total bottom-up",
        in_all: true,
        cached: true,
        compute: |o| {
            // One windowed-run pass feeds all 40 targets (total + 39
            // components).
            let targets: Vec<Target> = std::iter::once(Target::TotalPower)
                .chain((0..39).map(Target::Component))
                .collect();
            let cfg = CoreConfig::power10();
            let mut datasets = build_datasets(&cfg, &suite()[..6], &[1], o.ops / 3, 512, &targets);
            let total = datasets.remove(0);
            run_fig12(&total, &datasets, 12, 3)
        },
        render: |f| {
            format!(
                "model difference   : {:.2}% (paper 3.42%)\n\
                 bottom-up events   : {} across 39 components (paper 72)\n\
                 top-down events    : {}\n\
                 held-out error     : top-down {:.2}%, bottom-up {:.2}%\n",
                f.mean_model_difference_pct,
                f.bottom_up_events,
                f.top_down_events,
                f.top_down_error_pct,
                f.bottom_up_error_pct
            )
        },
        json: pretty,
    },
    &Experiment {
        name: "fig13",
        title: "Fig. 13 — derating per testcase",
        paper: "VT=10% leaves ~25% vulnerable; VT=90% ~52%",
        in_all: true,
        cached: true,
        compute: |o| rasstudy::run_fig13(&CoreConfig::power10(), o.ops / 6, 3),
        render: |f| {
            let mut s = "testcase               static   VT=10%   VT=50%   VT=90%\n".to_owned();
            for r in &f.rows {
                s += &format!(
                    "{:<20} {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}%\n",
                    r.testcase, r.static_pct, r.runtime_vt10, r.runtime_vt50, r.runtime_vt90
                );
            }
            s
        },
        json: pretty,
    },
    &Experiment {
        name: "fig14",
        title: "Fig. 14 — POWER9 vs POWER10 derating vs VT",
        paper: "P10 runtime derating higher (6%→21% gap); static ~10% lower",
        in_all: true,
        cached: true,
        compute: |o| rasstudy::run_fig14(o.ops / 6, &[0.1, 0.3, 0.5, 0.7, 0.9]),
        render: |f| {
            let mut s = format!(
                "static derating: P9 {:.1}%  P10 {:.1}%\n    VT P9 runtime P10 runtime      gap\n",
                f.p9.static_pct, f.p10.static_pct
            );
            for ((vt, r9), (_, r10)) in f.p9.runtime_by_vt.iter().zip(&f.p10.runtime_by_vt) {
                let gap = r10 - r9;
                s += &format!("{:>5.0}% {r9:>9.1}% {r10:>9.1}% {gap:>+7.1}%\n", vt * 100.0);
            }
            s
        },
        json: pretty,
    },
    &Experiment {
        name: "fig15a",
        title: "Fig. 15(a) — power-proxy error vs #counters",
        paper: "16 counters → 9.8% active-power error (<5% incl. static)",
        in_all: true,
        cached: true,
        compute: |o| run_fig15a(&fig11_dataset(o), 16),
        render: |sweep| {
            let mut s = String::new();
            for p in sweep {
                s += &format!(
                    "  counters {:>2}: active-power err {:>6.2}%\n",
                    p.inputs, p.test_error_pct
                );
            }
            s
        },
        json: pretty,
    },
    &Experiment {
        name: "fig15b",
        title: "Fig. 15(b) — proxy error vs time granularity",
        paper: "predicting every >=50 cycles is near-best; finer degrades fast",
        in_all: true,
        cached: true,
        compute: |o| {
            let windows = [8, 16, 32, 64, 128, 256, 512];
            run_fig15b(
                &CoreConfig::power10(),
                &suite()[8],
                o.ops / 2,
                &windows,
                8,
                0.35,
            )
        },
        render: |pts| {
            let mut s = String::new();
            for p in pts {
                s += &format!(
                    "  window {:>4} cycles: err {:>6.2}%\n",
                    p.window_cycles, p.error_pct
                );
            }
            s
        },
        json: pretty,
    },
    &Experiment {
        name: "flushes",
        title: "Flush study — wasted instructions",
        paper: "-25% SPECint, -38% interpreted/analytics",
        in_all: true,
        cached: true,
        compute: |o| flush::run_flush_study(42, o.ops / 2),
        render: |f| {
            let mut s = String::new();
            for r in &f.rows {
                s += &format!(
                    "{:<16} P9 {:>6.3} P10 {:>6.3} waste/inst  reduction {:>6.1}%\n",
                    r.workload,
                    r.p9_waste_per_inst,
                    r.p10_waste_per_inst,
                    r.reduction() * 100.0
                );
            }
            s + &format!(
                "SPECint mean reduction      : {:.1}% (paper 25%)\n\
                 interpreted/analytics mean  : {:.1}% (paper 38%)\n",
                f.specint_reduction() * 100.0,
                f.interpreted_reduction() * 100.0
            )
        },
        json: pretty,
    },
    &Experiment {
        name: "coverage",
        title: "Proxy coverage — Chopstix top-10 hot functions",
        paper: "coverage 41% (gcc) to 99% (xz), ~70% average",
        in_all: true,
        cached: true,
        compute: |o| {
            let workloads: Vec<_> = suite().iter().map(|b| b.workload(23)).collect();
            chopstix::coverage_table(&workloads, o.ops, 10)
        },
        render: |rows| {
            let mut s = String::new();
            let mut sum = 0.0;
            for r in rows {
                s += &format!(
                    "{:<16} proxies {:>2}  coverage {:>5.1}%\n",
                    r.workload,
                    r.proxies,
                    r.coverage * 100.0
                );
                sum += r.coverage;
            }
            let mean = sum / rows.len() as f64 * 100.0;
            s + &format!("average coverage: {mean:.1}% (paper ~70%)\n")
        },
        json: pretty,
    },
    &Experiment {
        name: "apex-speedup",
        title: "APEX speedup — detailed vs counter-based extraction",
        paper: "~5000x on AWAN hardware; software analog shows the asymmetry",
        in_all: true,
        cached: false,
        compute: |o| {
            let t = suite()[8].workload(5).trace_or_panic(o.ops / 2);
            let s = p10_apex::measure_speedup(&CoreConfig::power10(), &t, 10_000_000);
            // Wall-clock numbers vary run to run; they go to the obs
            // summary on stderr so stdout stays byte-identical across runs.
            p10_obs::gauge("apex.detailed_s", s.detailed_secs);
            p10_obs::gauge("apex.apex_s", s.apex_secs);
            p10_obs::gauge("apex.speedup", s.speedup);
            eprintln!(
                "[figures] apex-speedup wall clock: detailed {:.3}s vs APEX {:.3}s -> {:.1}x",
                s.detailed_secs, s.apex_secs, s.speedup
            );
            ApexWork {
                cycles: s.cycles,
                windows: s.windows,
            }
        },
        render: |a| {
            format!(
                "APEX extracted {} counter windows over {} cycles (detailed run reads every cycle)\n",
                a.windows, a.cycles
            )
        },
        json: pretty,
    },
    &Experiment {
        name: "wof",
        title: "WOF — workload-optimized frequency",
        paper: "light workloads boost under the envelope; MMA gating reclaims leakage",
        in_all: true,
        cached: true,
        compute: run_wof,
        render: |rows| {
            let mut s = String::new();
            for r in rows {
                s += &format!(
                    "{:<16} Ceff {:>5.2}  f = {:.2} GHz (boost {:>5.2}x), {:.2} GHz with MMA gated\n",
                    r.workload, r.ceff, r.freq_ghz, r.boost, r.freq_with_mma_gated
                );
            }
            s
        },
        json: pretty,
    },
    &Experiment {
        name: "tracepoints",
        title: "Tracepoints vs Simpoints",
        paper: "counter-histogram epochs beat BBVs on phased/interpreted code",
        in_all: true,
        cached: true,
        compute: |o| {
            let w = p10_workloads::suite::phased_pointer_chase(2_000);
            tracestudy::run_trace_study(&CoreConfig::power10(), &w, o.ops, 1_500, 3)
        },
        render: |t| {
            format!(
                "full CPI {:.3} | simpoint est {:.3} (err {:.1}%) | tracepoint est {:.3} (err {:.1}%)\n",
                t.full_cpi,
                t.simpoint_cpi,
                t.simpoint_error * 100.0,
                t.tracepoint_cpi,
                t.tracepoint_error * 100.0
            )
        },
        json: pretty,
    },
    &Experiment {
        name: "sensitivity",
        title: "Design-choice sensitivity",
        paper: "SS II-B mechanisms toggled off one at a time on POWER10",
        in_all: true,
        cached: true,
        compute: |o| p10_core::sensitivity::run_sensitivity(&suite(), 42, o.ops / 2),
        render: |rows| {
            let mut s =
                "mechanism                        perf      power  energy/inst\n".to_owned();
            for r in rows {
                s += &format!(
                    "{:<26} {:>+9.1}% {:>+9.1}% {:>+11.1}%\n",
                    r.label,
                    r.perf_benefit * 100.0,
                    r.power_benefit * 100.0,
                    r.efficiency_benefit * 100.0
                );
            }
            s
        },
        json: pretty,
    },
    &Experiment {
        name: "smt",
        title: "SMT throughput scaling",
        paper: "Table I: 8-way SMT per core; deeper P10 queues sustain threads",
        in_all: true,
        cached: true,
        compute: |o| {
            let suite = suite();
            let sel: Vec<_> = [8, 2, 7, 0].iter().map(|&i| suite[i].clone()).collect();
            p10_core::smtscale::run_smt_scaling(&sel, 42, o.ops / 4)
        },
        render: |f| {
            let mut s = "machine     threads  aggregate IPC   scaling\n".to_owned();
            for p in &f.points {
                s += &format!(
                    "{:<10} {:>8} {:>14.3} {:>8.2}x\n",
                    p.config, p.threads, p.aggregate_ipc, p.scaling
                );
            }
            s
        },
        json: pretty,
    },
    &Experiment {
        name: "tracking",
        title: "SS III-B tracked metrics",
        paper: "IPC, core power, efficiency, latches, % clock enabled, switching",
        in_all: true,
        cached: true,
        compute: |o| {
            let suite = suite();
            let track = |cfg| p10_core::tracking::track(&cfg, &suite[..4], 42, o.ops / 6);
            vec![track(CoreConfig::power9()), track(CoreConfig::power10())]
        },
        render: |rows| {
            let mut s = "machine       IPC   core pwr  efficiency    latches   clk-en%  potential   obs/pot\n".to_owned();
            for r in rows {
                s += &format!(
                    "{:<10} {:>6.2} {:>10.1} {:>11.5} {:>10.0} {:>8.1}% {:>10.3} {:>9.2}\n",
                    r.config,
                    r.ipc,
                    r.core_power,
                    r.core_efficiency,
                    r.latches,
                    r.clock_enabled_pct,
                    r.potential_switching,
                    r.observed_ratio
                );
            }
            s
        },
        json: pretty,
    },
    &Experiment {
        name: "droop",
        title: "Workload-transition droop",
        paper: "SS IV-B: sudden workload change droops the rail; the DDS clips it",
        in_all: true,
        cached: true,
        compute: |o| run_droop(o.ops),
        render: |d| {
            format!(
                "scalar -> MMA-kernel transition over {} power windows:\n\
                 worst droop without DDS {:.1}%  |  with DDS {:.1}% ({} engagements)\n",
                d.windows,
                d.max_droop_unprotected * 100.0,
                d.max_droop_with_dds * 100.0,
                d.engagements
            )
        },
        json: |d| serde_json::to_string(d).expect("json"),
    },
    &Experiment {
        name: "dse",
        title: "DSE — perf/watt Pareto frontier over the design space",
        paper: "2.6x core perf/W: locate the POWER9 -> POWER10 jump on the frontier",
        in_all: false,
        cached: false,
        compute: run_dse,
        render: render_dse,
        json: pretty,
    },
    &Experiment {
        name: "profile",
        title: "Cycle-attribution profile",
        paper: "SS III methodology turned on the simulator itself: where cycles go",
        in_all: false,
        cached: true,
        compute: |o| {
            let configs = [CoreConfig::power9(), CoreConfig::power10()];
            p10_core::cycleprof::run_profile(&configs, &suite(), 42, o.ops)
        },
        render: |rows| {
            let mut s = "workload         config           cycles    IPC  active     mma     mem   issue    disp   fetch    idle\n".to_owned();
            for r in rows {
                s += &format!(
                    "{:<16} {:<10} {:>12} {:>6.2}",
                    r.workload, r.config, r.cycles, r.ipc
                );
                let a = r.attribution;
                for bucket in [
                    a.active,
                    a.mma_gated,
                    a.memory_bound,
                    a.issue_limited,
                    a.dispatch_stalled,
                    a.fetch_stalled,
                    a.idle,
                ] {
                    s += &format!(" {:>6.1}%", r.share(bucket));
                }
                s += "\n";
            }
            s
        },
        json: pretty,
    },
    &Experiment {
        name: "sampling",
        title: "Sampled simulation — exact vs SimPoint-weighted execution",
        paper: "representative-interval sampling with statistical error bounds",
        in_all: false,
        cached: false,
        compute: |o| {
            // The study always runs both sides itself: exact as ground
            // truth, sampled in the CLI's mode, or a budget-scaled default
            // when the CLI mode is exact or absent. The mode line follows
            // the header in both output forms, so `--out` leaves it out.
            let mode = o
                .sampling
                .filter(|m| !m.is_exact())
                .unwrap_or_else(|| samplingstudy::default_mode(o.ops));
            println!("mode: {}  ops/workload: {}", mode.describe(), o.ops);
            samplingstudy::run(&suite()[7..10], o.ops, &mode)
        },
        render: samplingstudy::SamplingStudy::render,
        json: |s| pretty(&s.payload()),
    },
];

/// What `apex-speedup` prints: the deterministic side of the measurement.
#[derive(Clone, Serialize, Deserialize)]
struct ApexWork {
    cycles: u64,
    windows: u64,
}

/// One workload's workload-optimized frequency.
#[derive(Clone, Serialize, Deserialize)]
struct WofRow {
    workload: String,
    ceff: f64,
    freq_ghz: f64,
    boost: f64,
    freq_with_mma_gated: f64,
}

fn run_wof(o: &Opts) -> Vec<WofRow> {
    // Effective capacitance ratios from measured suite dynamic power.
    let results = scenario::run_suite(&CoreConfig::power10(), &suite(), 42, o.ops / 3).results;
    let ref_power = results
        .iter()
        .map(|r| r.power.active())
        .fold(0.0f64, f64::max);
    let wcfg = wof::WofConfig::typical();
    let rows = results.into_iter().map(|r| {
        let ceff = wof::ceff_ratio(r.power.active(), ref_power);
        let d = wof::solve(&wcfg, ceff, 0.0);
        WofRow {
            workload: r.workload,
            ceff,
            freq_ghz: d.point.freq,
            boost: d.boost,
            freq_with_mma_gated: wof::solve(&wcfg, ceff, 2.0).point.freq,
        }
    });
    rows.collect()
}

/// The numbers `droop` prints.
#[derive(Clone, Serialize, Deserialize)]
struct Droop {
    max_droop_unprotected: f64,
    max_droop_with_dds: f64,
    engagements: u32,
    windows: usize,
}

fn run_droop(ops: u64) -> Droop {
    use p10_powermgmt::throttle::{demand_from_power, simulate_droop, DroopSensor, PdnModel};
    // Real transition: idle-ish scalar loop into the MMA DGEMM kernel.
    let scalar = suite()[8].workload(3).trace_or_panic(ops / 8);
    let mut ops_list = scalar.ops;
    let kernel = p10_kernels::gemm::dgemm_mma(1 << 40).trace_or_panic(ops / 4);
    // The kernel workload uses its own memory image; for the droop demand
    // we only need the power series, so run the two phases separately.
    let cfg = CoreConfig::power10();
    let model = p10_power::PowerModel::for_config(&cfg);
    let phase_power = |trace: p10_isa::Trace| -> Vec<f64> {
        let report = p10_apex::run_apex(&cfg, vec![trace], 256, 10_000_000);
        report
            .windows
            .iter()
            .map(|w| model.evaluate(&w.activity).core_total())
            .collect()
    };
    ops_list.truncate(ops as usize / 8);
    let mut powers = phase_power(p10_isa::Trace { ops: ops_list });
    let p_ref = powers.iter().copied().fold(0.0f64, f64::max).max(1.0);
    powers.extend(phase_power(kernel));
    let demand = demand_from_power(&powers, p_ref);
    let pdn = PdnModel::default();
    let free = simulate_droop(&pdn, None, &demand);
    let protected = simulate_droop(&pdn, Some(&DroopSensor::default()), &demand);
    Droop {
        max_droop_unprotected: free.max_droop,
        max_droop_with_dds: protected.max_droop,
        engagements: protected.engagements,
        windows: demand.len(),
    }
}

fn run_dse(o: &Opts) -> dse::DseResult {
    let grid = dse::default_grid();
    let suite = dse::default_suite();
    let mut cfg = dse::DseConfig::new(42, o.ops);
    // The shard journal rides in the disk-cache dir; entries are
    // content-keyed (grid + suite + budget), so one file serves every
    // sweep and a killed run resumes from it. --no-cache disables it
    // along with the result cache.
    if !o.no_cache {
        cfg.journal = Some(runner::default_cache_dir().join("dse-journal.jsonl"));
    }
    let sp = p10_obs::span("dse.sweep");
    let outcome = dse::run_dse(runner::engine(), &grid, &suite, &cfg);
    let wall = sp.finish();
    let s = outcome.result.stats;
    // Wall-clock accounting stays on stderr so stdout is deterministic.
    eprintln!(
        "[figures] dse: {} points in {wall:.2}s — {} recordings simulated, {} shards computed, {} resumed",
        s.points,
        outcome.run.recordings_simulated,
        outcome.run.shards_computed,
        outcome.run.shards_resumed
    );
    #[allow(clippy::cast_precision_loss)]
    if outcome.run.recordings_simulated > 0 && s.classes > 0 {
        // Cold run: detailed simulation dominates the wall, so a naive
        // per-config re-simulation would cost ~points/classes as much.
        p10_obs::gauge("dse.est_naive_speedup", s.points as f64 / s.classes as f64);
    }
    outcome.result
}

fn render_dse(r: &dse::DseResult) -> String {
    let st = r.stats;
    #[allow(clippy::cast_precision_loss)]
    let replay_pct = st.replay_hits as f64 * 100.0 / st.points.max(1) as f64;
    let mut s = format!(
        "grid: {} points | {} timing classes | {} benchmarks | {} shards\n\
         reuse: {} points pure replay ({replay_pct:.1}%), {} detailed simulations ({} classes x {} benchmarks)\n\
         \nPareto frontier ({} of {} points):\n{}\n",
        st.points,
        st.classes,
        st.benches,
        st.shards,
        st.replay_hits,
        st.classes * st.benches,
        st.classes,
        st.benches,
        r.frontier.len(),
        st.points,
        dse::frontier_markdown(r)
    );
    let paper: Vec<&dse::DsePointResult> = r.points.iter().filter(|p| p.paper).collect();
    for p in &paper {
        let on = r.frontier.iter().any(|&i| r.points[i].name == p.name);
        s += &format!(
            "paper endpoint {:<18} perf {:>7.3}  power {:>6.1} W  perf/W {:.4}  [{}]\n",
            p.name,
            p.perf,
            p.power,
            p.perf_per_watt,
            if on { "on frontier" } else { "dominated" }
        );
    }
    if let [p9, p10] = paper.as_slice() {
        s += &format!(
            "POWER10 vs POWER9 perf/W: {:.2}x (paper: 2.6x core)\n",
            p10.perf_per_watt / p9.perf_per_watt.max(1e-12)
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Everything from `text`'s start up to the next experiment header
    /// (or the end), and the rest.
    fn section(text: &str) -> (&str, &str) {
        text.split_at(text.find("\n\n=== ").map_or(text.len(), |i| i + 1))
    }

    /// Renders each `all` entry from its section of the `--json` golden,
    /// without simulating anything, and checks the result against the
    /// golden text. Reprinting the parsed result must also give back the
    /// JSON section itself, so every result type keeps its JSON shape.
    #[test]
    fn all_renders_its_json_goldens_into_its_text_goldens() {
        let goldens = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../goldens");
        let read = |name: String| {
            std::fs::read_to_string(goldens.join(&name))
                .unwrap_or_else(|e| panic!("goldens/{name}: {e}"))
        };
        for ops in [2000, 60000] {
            let (json, text) = (
                read(format!("all_ops{ops}.json")),
                read(format!("all_ops{ops}.txt")),
            );
            let (mut json, mut text) = (json.as_str(), text.as_str());
            for e in REGISTRY.iter().filter(|e| e.in_all()) {
                let (name, header) = (e.name(), e.header());
                let (payload, rest) = section(json);
                json = rest;
                let payload = payload
                    .strip_prefix(&header)
                    .unwrap_or_else(|| panic!("{name}: JSON golden header (--ops {ops})"))
                    .strip_suffix('\n')
                    .expect("payload ends its line");
                // `fig6` and `socket` print one document per model: read
                // them back as the list they were printed from.
                let document = if payload.contains("\n}\n{") {
                    format!("[{}]", payload.replace("\n}\n{", "\n},\n{"))
                } else {
                    payload.to_owned()
                };
                let (reprinted, rendered) = e.reprint(&document);
                assert_eq!(reprinted, payload, "{name}: JSON reprint (--ops {ops})");
                let (expected, rest) = section(text);
                text = rest;
                assert_eq!(header + &rendered, expected, "{name}: text (--ops {ops})");
            }
            assert!(
                json.is_empty() && text.is_empty(),
                "goldens hold more sections"
            );
        }
    }
}
