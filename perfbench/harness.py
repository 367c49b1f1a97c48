"""Pure helpers of the benchmark: output checks, parsers and statistics.

Nothing here starts a process or touches the file system, so every
function is covered by `test_perfbench.py` without building the program.
"""

import hashlib
import json
import statistics

# Fields of `figures sampling --json` that hold host wall-clock time and
# so differ run to run; every other field is a pure function of the code.
SAMPLING_WALL_CLOCK_KEYS = frozenset({"exact_s", "sampled_s", "speedup"})

# Layers of the in-process driver, named after the crates they call into.
LAYERS = (
    "workloads",
    "uarch",
    "rtlsim",
    "apex",
    "power",
    "powermgmt",
    "powermodel",
    "trace",
    "runner",
    "dse",
)


def digest(data):
    """Short content digest of a run's output bytes."""
    return hashlib.sha256(data).hexdigest()[:16]


def quartiles(values):
    """(q1, median, q3) as `statistics.quantiles(values, n=4)` gives them.

    A single value is its own quartiles.
    """
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def odd_ones_out(digests):
    """Indices of digests that differ from the most common one.

    Ties go to the earliest digest, so with two runs that disagree the
    second is the one counted as failed.
    """
    if not digests:
        return []
    counts = {}
    for d in digests:
        counts[d] = counts.get(d, 0) + 1
    best = max(counts.values())
    reference = next(d for d in digests if counts[d] == best)
    return [i for i, d in enumerate(digests) if d != reference]


def json_document(text):
    """The JSON object a `figures --json` run prints after its banner."""
    if text.startswith("{"):
        return json.loads(text)
    start = text.find("\n{")
    if start < 0:
        raise ValueError("no JSON object in output")
    return json.loads(text[start + 1:])


def strip_keys(value, keys):
    """`value` with every object key in `keys` removed, recursively."""
    if isinstance(value, dict):
        return {k: strip_keys(v, keys) for k, v in value.items() if k not in keys}
    if isinstance(value, list):
        return [strip_keys(v, keys) for v in value]
    return value


def check_sampling(text):
    """Checks one `figures sampling --json` stdout.

    Returns `(digest, problems, cpi_err_pct, power_err_pct)`. The digest
    covers every field except host wall-clock time, so it changes only
    when simulated statistics change. A problem is any row without
    `within_bound`, any row outside its bound, or a bound-mode estimate
    outside the bound it printed. The error percentages are the largest
    |sampled - exact| relative errors over the SimPoint rows.
    """
    try:
        doc = json_document(text)
        rows = doc["rows"]
        bound = doc["bound"]
    except (ValueError, KeyError, TypeError) as e:
        return None, [f"unparseable sampling output: {e}"], 0.0, 0.0
    problems = []
    if not rows:
        problems.append("no sampling rows")
    for row in rows:
        name = row.get("workload", "?")
        if "within_bound" not in row:
            problems.append(f"row {name} has no within_bound")
        elif row["within_bound"] is not True:
            problems.append(f"row {name} is outside its printed bound")
    for metric in ("cpi", "power"):
        err, lim = bound.get(f"{metric}_rel_err"), bound.get(f"{metric}_bound_rel")
        if not isinstance(err, (int, float)) or not isinstance(lim, (int, float)) or err > lim:
            problems.append(f"bound-mode {metric} error {err} is not within {lim}")
    canon = json.dumps(strip_keys(doc, SAMPLING_WALL_CLOCK_KEYS), sort_keys=True)
    cpi = max((abs(r.get("cpi_rel_err", 0.0)) for r in rows), default=0.0)
    power = max((abs(r.get("power_rel_err", 0.0)) for r in rows), default=0.0)
    return digest(canon.encode()), problems, 100.0 * cpi, 100.0 * power


def check_dse_json(text):
    """Problems with one `figures dse --json` stdout (empty when fine)."""
    try:
        doc = json_document(text)
    except ValueError as e:
        return [f"unparseable dse output: {e}"]
    frontier = doc.get("frontier") if isinstance(doc, dict) else None
    if not frontier:
        return ["dse output has no Pareto frontier"]
    return []


def parse_obs(doc):
    """Flattens a `figures --obs-json` summary into name -> value maps."""
    return {
        "counters": {c["name"]: c["value"] for c in doc.get("counters", [])},
        "gauges": {g["name"]: g["value"] for g in doc.get("gauges", [])},
        "hists": {h["name"]: h["hist"] for h in doc.get("histograms", [])},
    }


def obs_layer_metrics(obs):
    """Per-layer counts, read as the program reported them.

    A counter the run never touched reads 0: the layer did no such work
    on this workload.
    """
    c, g, h = obs["counters"], obs["gauges"], obs["hists"]
    busy = [v for k, v in g.items() if k.startswith("runner.worker") and k.endswith(".busy_frac")]
    points = c.get("dse.points", 0)
    return {
        "workloads.arena_bytes": c.get("trace.arena.bytes", 0),
        "workloads.arena_hit_rate": g.get("trace.arena.hit_rate", 0.0),
        "uarch.span_hit_rate": g.get("sim.span_hit_rate", 0.0),
        "runner.busy_frac": min(busy) if busy else 0.0,
        "runner.queue_wait_s": h.get("runner.queue_wait", {}).get("sum", 0.0),
        "runner.computes": c.get("cache.computes", 0),
        "runner.disk_hits": c.get("cache.disk_hits", 0),
        "runner.memo_hits": c.get("cache.memo_hits", 0),
        "runner.decode_errors": c.get("cache.disk_decode_errors", 0),
        "sampling.sim_share": g.get("sim.sample.coverage", 0.0),
        "sampling.warm_passes": c.get("sampling.warm_passes", 0),
        "sampling.ckpt_hit_rate": g.get("sampling.ckpt.hit_rate", 0.0),
        "sampling.ckpt_bytes": c.get("sampling.ckpt_bytes", 0),
        "dse.classes": c.get("dse.classes", 0),
        "dse.replay_share": c.get("dse.replay_hits", 0) / points if points else 0.0,
    }


def layer_self_times(spans):
    """Self time per layer and the share of the layer driver's wall they cover.

    A span's self time is its duration minus that of its direct children;
    a layer's is the sum over its spans. The share is the summed self time
    of every named layer over the root span's duration, so time spent
    outside every layer (the layer driver's own glue) is what it leaves out.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end_s"] - s["start_s"]
    self_s = {layer: 0.0 for layer in LAYERS}
    for i, s in enumerate(spans):
        if s["layer"] in self_s:
            self_s[s["layer"]] += (s["end_s"] - s["start_s"]) - child_time[i]
    roots = [s for s in spans if s["parent"] is None]
    wall = sum(s["end_s"] - s["start_s"] for s in roots)
    share = sum(self_s.values()) / wall if wall > 0 else 0.0
    return self_s, share
