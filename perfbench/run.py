#!/usr/bin/env python3
"""Benchmark of the p10sim `figures` binary, end to end and per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --rounds R --seconds S --trace 0|1

`--trace 0` times the `figures` binary as a child process, untraced, as
many times as fit in `--seconds` (at least three times), each run from fresh
state after a short warm-up run, and checks every run's output. `--trace 1` makes one untraced and
one traced (`--trace-out`, `--obs-json`) run of the same workload, then
runs the in-process layer driver (`perfbench/layers`) with `--seed`, and
reports per-layer metrics. The last stdout line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the lines before it are
the human-readable report (machine context, quartiles, output digests).

`--workload all` runs every workload `--rounds` times, interleaved, with
a different seed per round, and prints each metric's median, quartiles,
spread and n per workload, and each workload's error rate.

The program is built from source first (`cargo build --release`) into
`$CARGO_TARGET_DIR`, default `.bench_build`. Run state lives under
`.bench_state/` and is removed when the run ends.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import harness as h  # noqa: E402

ROOT = Path.cwd()
STATE = ROOT / ".bench_state"
JOBS = "2"
# After the build, an invocation must end within 180 s: runs stop being
# started, and a running one is killed, so the report still goes out.
HARD_LIMIT_S = 165.0

# The `figures` arguments of each workload (`--jobs 2 --no-ledger` added).
WORKLOADS = {
    "all_cold": ["all", "--ops", "60000"],
    "all_warm": ["all", "--ops", "60000"],
    "sampling_1m": ["sampling", "--ops", "1000000", "--json"],
    "dse_60k": ["dse", "--ops", "60000"],
}
# The set-up of a cold run is an empty state directory plus one warm-up
# run of the same experiment on a small input, in a state of its own: it
# loads the binary before the timed run, and it is long enough (0.3-1.5 s)
# that its median is set by the program, not by file-system noise.
WARMUP_OPS = {"all_cold": "2000", "sampling_1m": "20000", "dse_60k": "2000"}
# At least three timed runs (and so three set-ups), so one slow run or
# one slow set-up does not move an invocation's median.
MIN_RUNS = 3

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

# Per-layer metric, unit, and the end-to-end metric and workload it
# should move.
PER_LAYER = (
    ("workloads.synth_s", "s", "wall_s on sampling_1m, all_cold; not dse_60k"),
    ("workloads.synth_mops_per_s", "Mop/s", "wall_s on sampling_1m, all_cold; not dse_60k"),
    ("workloads.arena_bytes", "B", "peak_rss_mb on sampling_1m, all_cold"),
    ("workloads.arena_hit_rate", "ratio", "peak_rss_mb on sampling_1m, all_cold"),
    ("uarch.run_s", "s", "wall_s, cpu_s on all_cold; not all_warm"),
    ("uarch.dense_mcycles_per_s", "Mcycle/s", "wall_s on all_cold"),
    ("uarch.ff_mcycles_per_s", "Mcycle/s", "wall_s on all_cold, sampling_1m"),
    ("uarch.span_hit_rate", "ratio", "wall_s on all_cold"),
    ("uarch.warm_mops_per_s", "Mop/s", "wall_s on sampling_1m"),
    ("uarch.ckpt_encode_s", "s", "wall_s on sampling_1m"),
    ("uarch.ckpt_decode_s", "s", "wall_s on sampling_1m"),
    ("rtlsim.run_s", "s", "wall_s on all_cold, all_warm"),
    ("rtlsim.overhead_x", "x", "wall_s on all_cold, all_warm"),
    ("apex.run_s", "s", "wall_s on all_cold, all_warm"),
    ("apex.overhead_x", "x", "wall_s on all_cold, all_warm"),
    ("record.overhead_x", "x", "wall_s on dse_60k"),
    ("power.eval_us", "us", "wall_s on dse_60k"),
    ("power.windows_per_s", "1/s", "wall_s on dse_60k"),
    ("powermgmt.replay_windows_per_s", "1/s", "wall_s on dse_60k"),
    ("powermodel.fit_s", "s", "wall_s on all_cold, all_warm"),
    ("trace.kmeans_s", "s", "wall_s on sampling_1m"),
    ("runner.encode_us", "us", "cpu_s on all_cold"),
    ("runner.decode_us", "us", "wall_s on all_warm"),
    ("runner.entry_bytes", "B", "wall_s on all_warm"),
    ("runner.busy_frac", "ratio", "wall_s on all_cold; not cpu_s"),
    ("runner.queue_wait_s", "s", "wall_s on all_cold; not cpu_s"),
    ("runner.computes", "count", "cpu_s on all_cold"),
    ("runner.disk_hits", "count", "wall_s on all_warm"),
    ("runner.memo_hits", "count", "wall_s on all_cold, all_warm"),
    ("runner.decode_errors", "count", "error_rate on all_warm"),
    ("sampling.sim_share", "ratio", "wall_s, peak_rss_mb on sampling_1m"),
    ("sampling.warm_passes", "count", "wall_s, peak_rss_mb on sampling_1m"),
    ("sampling.ckpt_hit_rate", "ratio", "wall_s, peak_rss_mb on sampling_1m"),
    ("sampling.ckpt_bytes", "B", "wall_s, peak_rss_mb on sampling_1m"),
    ("sample_cpi_err_pct", "%", "must not change on sampling_1m (0 elsewhere)"),
    ("sample_power_err_pct", "%", "must not change on sampling_1m (0 elsewhere)"),
    ("dse.classes", "count", "wall_s on dse_60k"),
    ("dse.replay_share", "ratio", "wall_s on dse_60k"),
    ("dse.record_s", "s", "wall_s on dse_60k"),
    ("dse.replay_s", "s", "wall_s on dse_60k"),
    ("dse.journal_bytes", "B", "wall_s on dse_60k"),
    ("obs.trace_overhead", "x", "none: traced wall over untraced wall"),
    ("layers.span_share", "ratio", "none: share of the layer driver wall inside named layers"),
) + tuple((f"{layer}.self_s", "s", "self time of the layer in the layer driver") for layer in h.LAYERS)


def log(msg):
    print(msg, flush=True)


def target_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def clean_env():
    """The caller's environment without any inherited `P10SIM_*` setting."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("P10SIM_")}
    env.setdefault("CARGO_TARGET_DIR", str(target_dir()))
    return env


def build():
    """Builds `figures` and the layer driver; returns their paths."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "bench").is_dir():
        print("error: run from the root of a p10sim source checkout", file=sys.stderr)
        sys.exit(2)
    manifests = (
        ["-p", "p10-bench", "--bin", "figures"],
        ["--manifest-path", str(ROOT / "perfbench" / "layers" / "Cargo.toml")],
    )
    for extra in manifests:
        cmd = ["cargo", "build", "--release", "--offline", "-q", *extra]
        r = subprocess.run(cmd, cwd=ROOT, env=clean_env(), stdout=sys.stderr, check=False)
        if r.returncode != 0:
            print(f"error: build failed: {' '.join(cmd)}", file=sys.stderr)
            sys.exit(1)
    release = target_dir() / "release"
    return release / "figures", release / "perfbench-layers"


def context():
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            model = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "loadavg_1m": os.getloadavg()[0],
    }


def timed_process(args, env, out_path, err_path, timeout):
    """Runs `args` to completion; returns host wall, CPU and peak RSS."""
    t0 = time.perf_counter()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        p = subprocess.Popen(args, stdout=out, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(max(timeout, 1.0), p.kill)
        killer.start()
        try:
            _, status, ru = os.wait4(p.pid, 0)
        finally:
            killer.cancel()
        p.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": time.perf_counter() - t0,
        "cpu_s": ru.ru_utime + ru.ru_stime,
        "peak_rss_mb": ru.ru_maxrss / 1024.0,
        "rc": p.returncode,
        "stdout": Path(out_path).read_bytes(),
    }


class Invocation:
    """One invocation: its run directories, runs and failures."""

    def __init__(self, workload, figures, deadline):
        self.workload = workload
        self.figures = figures
        self.deadline = deadline
        self.dir = STATE / f"{workload}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.attempted = 0
        self.problems = []
        self.serial = 0

    def fresh_dir(self):
        """An empty state directory (cache + checkpoints) for one run."""
        self.serial += 1
        d = self.dir / f"run{self.serial}"
        (d / "cache").mkdir(parents=True)
        (d / "ckpt").mkdir()
        return d

    def figures_run(self, state, extra=(), warmup=False):
        """One `figures` run on `state`; output checked, failures counted.

        A warm-up run is the workload's experiment at `WARMUP_OPS`; its
        digest is voted on among the warm-up runs only.
        """
        workload = WORKLOADS[self.workload]
        if warmup:
            i = workload.index("--ops") + 1
            workload = [*workload[:i], WARMUP_OPS[self.workload], *workload[i + 1:]]
        args = [str(self.figures), *workload, *extra, "--jobs", JOBS, "--no-ledger"]
        env = clean_env()
        env["P10SIM_CACHE_DIR"] = str(state / "cache")
        env["P10SIM_CKPT_DIR"] = str(state / "ckpt")
        self.serial += 1
        tag = f"out{self.serial}"
        run = timed_process(
            args, env, state / f"{tag}.stdout", state / f"{tag}.stderr", self.deadline - time.monotonic()
        )
        self.attempted += 1
        self.check(run, "--json" in extra)
        if warmup:
            run["group"] = "warmup"
        return run

    def check(self, run, dse_json):
        problems = []
        if run["rc"] != 0:
            problems.append(f"exit code {run['rc']}")
        text = run["stdout"].decode("utf-8", "replace")
        run["digest"] = h.digest(run["stdout"])
        if self.workload == "sampling_1m":
            run["digest"], sprob, run["cpi_err_pct"], run["power_err_pct"] = h.check_sampling(text)
            problems += sprob
        elif dse_json:
            problems += h.check_dse_json(text)
        elif not text.strip():
            problems.append("empty stdout")
        run["group"] = "json" if dse_json else "text"
        run["ok"] = not problems
        self.problems += problems

    def compare_digests(self, runs):
        """Fails every run whose output differs from its group's majority."""
        for group in ("text", "json", "warmup"):
            members = [r for r in runs if r["group"] == group and r["ok"]]
            for i in h.odd_ones_out([r["digest"] for r in members]):
                members[i]["ok"] = False
                self.problems.append(f"output digest {members[i]['digest']} differs from the other runs")

    def failed(self, runs):
        return sum(1 for r in runs if not r["ok"])

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            STATE.rmdir()
        except OSError:
            pass


def summarize(name, unit, values):
    q1, med, q3 = h.quartiles(values)
    log(f"  {name:<14} {med:>12.4f} {unit:<3} q1 {q1:.4f} q3 {q3:.4f} n={len(values)}")


def measure(inv, seconds):
    """`--trace 0`: timed untraced runs; returns (metrics, runs)."""
    setups, runs = [], []
    warm_state = None
    if inv.workload == "all_warm":
        # Set-up of the warm workload: one cold run fills the cache that
        # every timed run then reads.
        t0 = time.perf_counter()
        warm_state = inv.fresh_dir()
        prime = inv.figures_run(warm_state)
        setups.append(time.perf_counter() - t0)
        prime["timed"] = False
        runs.append(prime)
    start = time.monotonic()
    while True:
        if warm_state is None:
            t0 = time.perf_counter()
            state = inv.fresh_dir()
            scratch = inv.fresh_dir()
            warmup = inv.figures_run(scratch, warmup=True)
            shutil.rmtree(scratch, ignore_errors=True)
            setups.append(time.perf_counter() - t0)
            warmup["timed"] = False
            runs.append(warmup)
        else:
            state = warm_state
        # dse_60k alternates text and --json output; both are checked.
        n_timed = sum(1 for r in runs if r["timed"])
        extra = ["--json"] if inv.workload == "dse_60k" and n_timed % 2 else []
        run = inv.figures_run(state, extra)
        run["timed"] = True
        runs.append(run)
        if state is not warm_state:
            shutil.rmtree(state, ignore_errors=True)
        timed = [r for r in runs if r["timed"]]
        elapsed = time.monotonic() - start
        if len(timed) >= MIN_RUNS and elapsed >= seconds:
            break
        if time.monotonic() + 1.5 * run["wall_s"] > inv.deadline:
            break
    inv.compare_digests(runs)
    timed = [r for r in runs if r["timed"]]
    log("end-to-end, median with quartiles over this invocation's timed runs:")
    metrics = {}
    for name, unit in END_TO_END:
        values = setups if name == "setup_s" else [r[name] for r in timed]
        summarize(name, unit, values)
        metrics[name] = {"value": h.quartiles(values)[1], "unit": unit}
    if inv.workload == "sampling_1m":
        log(f"  sample_cpi_err_pct   {timed[0].get('cpi_err_pct', 0.0):.4f} %")
        log(f"  sample_power_err_pct {timed[0].get('power_err_pct', 0.0):.4f} %")
    return metrics, runs


def traced(inv, seed, layers_bin):
    """`--trace 1`: one untraced and one traced run, then the layer driver."""
    runs = []
    warm_state = None
    if inv.workload == "all_warm":
        warm_state = inv.fresh_dir()
        runs.append(inv.figures_run(warm_state))
    plain = inv.figures_run(warm_state or inv.fresh_dir())
    tstate = warm_state or inv.fresh_dir()
    obs_path = tstate / "obs.json"
    extra = ["--trace-out", str(tstate / "trace.jsonl"), "--obs-json", str(obs_path)]
    trace = inv.figures_run(tstate, extra)
    runs += [plain, trace]
    inv.compare_digests(runs)

    metrics = {}
    try:
        obs = h.parse_obs(json.loads(obs_path.read_text()))
    except (OSError, ValueError, KeyError, TypeError) as e:
        inv.problems.append(f"unreadable --obs-json summary: {e}")
        trace["ok"] = False
        obs = h.parse_obs({})
    metrics.update(h.obs_layer_metrics(obs))
    journals = list((tstate / "cache").glob("*journal*"))
    metrics["dse.journal_bytes"] = sum(p.stat().st_size for p in journals)
    metrics["sample_cpi_err_pct"] = trace.get("cpi_err_pct", 0.0)
    metrics["sample_power_err_pct"] = trace.get("power_err_pct", 0.0)
    metrics["obs.trace_overhead"] = trace["wall_s"] / plain["wall_s"] if plain["wall_s"] > 0 else 0.0

    driver = {"ok": True, "group": "driver"}
    runs.append(driver)
    inv.attempted += 1
    args = [str(layers_bin), "--workload", inv.workload, "--seed", str(seed)]
    out = timed_process(
        args, clean_env(), inv.dir / "layers.json", inv.dir / "layers.stderr",
        inv.deadline - time.monotonic(),
    )
    try:
        doc = json.loads(out["stdout"])
        if out["rc"] != 0 or doc["failed_checks"]:
            raise ValueError(f"exit {out['rc']}, {doc['failed_checks']} failed checks")
        metrics.update(doc["metrics"])
        self_s, share = h.layer_self_times(doc["spans"])
        for layer, v in self_s.items():
            metrics[f"{layer}.self_s"] = v
        metrics["layers.span_share"] = share
    except (ValueError, KeyError, TypeError) as e:
        inv.problems.append(f"layer driver failed: {e}")
        driver["ok"] = False

    log(f"per-layer (traced run, seed {seed}); '->' names what each should move:")
    result = {}
    for name, unit, moves in PER_LAYER:
        value = metrics.get(name, 0.0)
        result[name] = {"value": value, "unit": unit}
        log(f"  {name:<32} {value:>16.6g} {unit:<9} -> {moves}")
    return result, runs


def one(args):
    figures, layers_bin = build()
    deadline = time.monotonic() + HARD_LIMIT_S
    ctx = context()
    log(f"workload {args.workload} seed {args.seed} trace {args.trace} seconds {args.seconds}")
    log(f"machine: nproc {ctx['nproc']}, cpu {ctx['cpu']}, loadavg(1m) at start {ctx['loadavg_1m']:.2f}")
    inv = Invocation(args.workload, figures, deadline)
    try:
        if args.trace:
            metrics, runs = traced(inv, args.seed, layers_bin)
        else:
            metrics, runs = measure(inv, args.seconds)
    finally:
        inv.close()
    failed = inv.failed(runs)
    digests = sorted({f"{r['group']}:{r['digest']}" for r in runs if "digest" in r})
    log(f"output digests: {' '.join(digests)}")
    log(f"error_rate: {failed}/{inv.attempted}")
    for p in inv.problems:
        log(f"  failure: {p}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": inv.attempted,
        "failed": failed,
        "metrics": metrics,
    }))


def rounds(args):
    """Every workload `--rounds` times, interleaved, one seed per round."""
    results = {w: [] for w in WORKLOADS}
    for r in range(args.rounds):
        order = list(WORKLOADS)
        order = order[r % len(order):] + order[:r % len(order)]
        for w in order:
            cmd = [sys.executable, __file__, "--workload", w, "--seed", str(args.seed + r),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            t0 = time.monotonic()
            p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            took = time.monotonic() - t0
            lines = p.stdout.strip().splitlines()
            try:
                results[w].append(json.loads(lines[-1]))
            except (IndexError, ValueError):
                sys.stderr.write(p.stdout + p.stderr)
                results[w].append({"correct": False, "attempted": 1, "failed": 1, "metrics": {}})
            m = results[w][-1]["metrics"]
            brief = " ".join(f"{k}={v['value']:.4g}" for k, v in m.items() if k in dict(END_TO_END))
            log(f"round {r} {w} ({took:.0f} s): {brief} failed={results[w][-1]['failed']}")
    log("workload       metric                      median          q1          q3  spread   n")
    for w, res in results.items():
        attempted = sum(x["attempted"] for x in res)
        failed = sum(x["failed"] for x in res)
        units = {name: m["unit"] for x in res for name, m in x["metrics"].items()}
        for name, unit in units.items():
            vals = [x["metrics"][name]["value"] for x in res if name in x["metrics"]]
            q1, med, q3 = h.quartiles(vals)
            log(f"{w:<14} {name:<20} {unit:<6} {med:>11.5g} {q1:>11.5g} {q3:>11.5g} {h.spread(vals):>7.3f} {len(vals):>3}")
        log(f"{w:<14} error_rate           {failed}/{attempted}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rounds", type=int, default=1, help="with --workload all")
    args = ap.parse_args()
    if args.workload == "all":
        rounds(args)
    else:
        one(args)


if __name__ == "__main__":
    main()
