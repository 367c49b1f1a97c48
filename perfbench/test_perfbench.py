"""Tests of the benchmark's own logic.

Run from the repository root: python3 -m unittest discover -s perfbench
"""

import json
import os
import stat
import sys
import tempfile
import textwrap
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import harness as h  # noqa: E402
import run  # noqa: E402

SAMPLING_OUT = """
=== Sampled simulation ===
mode: simpoints:15625:8:1953  ops/workload: 1000000
{
  "rows": [
    {"workload": "a", "cpi_rel_err": 0.01, "cpi_bound_rel": 0.1, "power_rel_err": 0.002,
     "exact_s": 0.7, "sampled_s": 0.2, "speedup": 3.5, "within_bound": true},
    {"workload": "b", "cpi_rel_err": 0.03, "cpi_bound_rel": 0.1, "power_rel_err": 0.004,
     "exact_s": 0.5, "sampled_s": 0.1, "speedup": 5.0, "within_bound": true}
  ],
  "bound": {"cpi_rel_err": 0.001, "cpi_bound_rel": 0.02, "power_rel_err": 0.003, "power_bound_rel": 0.02},
  "checkpoints": {"hits": 32, "misses": 134}
}
"""

OBS = {
    "total_wall_s": 12.0,
    "counters": [
        {"name": "cache.computes", "value": 314},
        {"name": "cache.memo_hits", "value": 32},
        {"name": "trace.arena.bytes", "value": 277760000},
        {"name": "dse.points", "value": 578},
        {"name": "dse.replay_hits", "value": 553},
    ],
    "gauges": [
        {"name": "runner.worker00.busy_frac", "value": 0.65},
        {"name": "runner.worker01.busy_frac", "value": 0.61},
        {"name": "trace.arena.hit_rate", "value": 0.75},
    ],
    "histograms": [{"name": "runner.queue_wait", "hist": {"count": 344, "sum": 27.5}}],
}


class SamplingChecks(unittest.TestCase):
    def test_clean_output_passes_and_reports_largest_errors(self):
        d, problems, cpi, power = h.check_sampling(SAMPLING_OUT)
        self.assertEqual(problems, [])
        self.assertAlmostEqual(cpi, 3.0)
        self.assertAlmostEqual(power, 0.4)
        self.assertEqual(len(d), 16)

    def test_digest_ignores_wall_clock_but_not_statistics(self):
        d = h.check_sampling(SAMPLING_OUT)[0]
        faster = SAMPLING_OUT.replace('"exact_s": 0.7', '"exact_s": 0.9').replace('"speedup": 5.0', '"speedup": 6.0')
        self.assertEqual(h.check_sampling(faster)[0], d)
        changed = SAMPLING_OUT.replace('"hits": 32', '"hits": 31')
        self.assertNotEqual(h.check_sampling(changed)[0], d)

    def test_rows_outside_or_without_bound_fail(self):
        outside = SAMPLING_OUT.replace('"speedup": 5.0, "within_bound": true', '"speedup": 5.0, "within_bound": false')
        self.assertEqual(len(h.check_sampling(outside)[1]), 1)
        missing = SAMPLING_OUT.replace(', "within_bound": true}', "}", 1)
        self.assertIn("row a has no within_bound", h.check_sampling(missing)[1])

    def test_bound_mode_estimate_outside_its_bound_fails(self):
        bad = SAMPLING_OUT.replace('"power_rel_err": 0.003', '"power_rel_err": 0.03')
        self.assertEqual(len(h.check_sampling(bad)[1]), 1)

    def test_unparseable_output_fails(self):
        self.assertEqual(len(h.check_sampling("no json here")[1]), 1)
        self.assertEqual(len(h.check_dse_json("banner only")), 1)
        self.assertEqual(h.check_dse_json('x\n{"points": [], "frontier": [1]}'), [])


class ObsSummary(unittest.TestCase):
    def test_counters_are_read_not_derived(self):
        m = h.obs_layer_metrics(h.parse_obs(OBS))
        self.assertEqual(m["runner.computes"], 314)
        self.assertEqual(m["runner.memo_hits"], 32)
        self.assertEqual(m["workloads.arena_bytes"], 277760000)
        self.assertAlmostEqual(m["runner.busy_frac"], 0.61)
        self.assertAlmostEqual(m["runner.queue_wait_s"], 27.5)
        self.assertAlmostEqual(m["dse.replay_share"], 553 / 578)

    def test_untouched_counters_read_zero(self):
        m = h.obs_layer_metrics(h.parse_obs({}))
        self.assertEqual(m["runner.disk_hits"], 0)
        self.assertEqual(m["runner.busy_frac"], 0.0)
        self.assertEqual(m["dse.replay_share"], 0.0)


class Spans(unittest.TestCase):
    def test_self_time_subtracts_children_and_share_leaves_out_glue(self):
        spans = [
            {"parent": None, "layer": "driver", "name": "driver", "start_s": 0.0, "end_s": 10.0},
            {"parent": 0, "layer": "uarch", "name": "uarch.run", "start_s": 0.0, "end_s": 4.0},
            {"parent": 0, "layer": "dse", "name": "dse.replay", "start_s": 4.0, "end_s": 9.0},
            {"parent": 2, "layer": "power", "name": "power.windows", "start_s": 4.0, "end_s": 6.0},
            {"parent": 2, "layer": "powermgmt", "name": "powermgmt.replay", "start_s": 6.0, "end_s": 8.0},
        ]
        self_s, share = h.layer_self_times(spans)
        self.assertAlmostEqual(self_s["uarch"], 4.0)
        self.assertAlmostEqual(self_s["dse"], 1.0)
        self.assertAlmostEqual(self_s["power"], 2.0)
        self.assertAlmostEqual(self_s["powermgmt"], 2.0)
        self.assertAlmostEqual(share, 0.9)


class Statistics(unittest.TestCase):
    def test_quartiles_match_statistics_module(self):
        self.assertEqual(h.quartiles([5.0]), (5.0, 5.0, 5.0))
        q1, med, q3 = h.quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
        self.assertEqual(med, 3.0)
        self.assertLess(q1, med)
        self.assertGreater(q3, med)

    def test_odd_ones_out(self):
        self.assertEqual(h.odd_ones_out(["a", "a", "b"]), [2])
        self.assertEqual(h.odd_ones_out(["a", "b"]), [1])
        self.assertEqual(h.odd_ones_out(["a", "a"]), [])


class PlantedFailures(unittest.TestCase):
    """A run that fails must count in `failed`, which the error rate reads."""

    def setUp(self):
        base = HERE.parent / ".bench_state"
        base.mkdir(exist_ok=True)
        self.tmp = tempfile.TemporaryDirectory(dir=base)
        self.dir = Path(self.tmp.name)
        self.saved_state = run.STATE
        run.STATE = self.dir / "state"

    def tearDown(self):
        run.STATE = self.saved_state
        self.tmp.cleanup()

    def fake_figures(self, body):
        """An executable stand-in for `figures`; `n` is its call number."""
        path = self.dir / "figures"
        counter = self.dir / "calls"
        path.write_text(textwrap.dedent(f"""\
            #!{sys.executable}
            import sys
            from pathlib import Path
            c = Path({str(counter)!r})
            n = int(c.read_text()) if c.exists() else 0
            c.write_text(str(n + 1))
        """) + textwrap.dedent(body))
        path.chmod(path.stat().st_mode | stat.S_IXUSR)
        return path

    def measure(self, workload, body):
        inv = run.Invocation(workload, self.fake_figures(body), deadline=time.monotonic() + 60)
        saved = sys.stdout
        with open(os.devnull, "w") as sys.stdout:
            try:
                metrics, runs = run.measure(inv, seconds=0)
            finally:
                sys.stdout = saved
                inv.close()
        return inv, metrics, runs

    def test_clean_runs_do_not_fail(self):
        inv, metrics, runs = self.measure("all_cold", "print(' '.join(sys.argv[1:4]))\n")
        self.assertEqual(inv.failed(runs), 0)
        # Every timed run follows the warm-up run of its set-up.
        self.assertEqual(inv.attempted, 2 * run.MIN_RUNS)
        warmups = [r["stdout"] for r in runs if not r["timed"]]
        self.assertEqual(warmups, [b"all --ops 2000\n"] * run.MIN_RUNS)
        self.assertEqual(set(metrics), {n for n, _ in run.END_TO_END})

    def test_nonzero_exit_counts_as_failed(self):
        inv, _, runs = self.measure("all_cold", "print('table')\nsys.exit(3 if n == 1 else 0)\n")
        self.assertEqual(inv.failed(runs), 1)
        self.assertIn("exit code 3", inv.problems)

    def test_digest_mismatch_counts_as_failed(self):
        inv, _, runs = self.measure("all_warm", "print('table' if n != 2 else 'changed')\n")
        self.assertEqual(inv.attempted, run.MIN_RUNS + 1)
        self.assertEqual(inv.failed(runs), 1)

    def test_sampled_estimate_outside_bound_counts_as_failed(self):
        bad = SAMPLING_OUT.replace('"speedup": 5.0, "within_bound": true', '"speedup": 5.0, "within_bound": false')
        body = f"print({bad!r} if n == 1 else {SAMPLING_OUT!r})\n"
        inv, _, runs = self.measure("sampling_1m", body)
        self.assertEqual(inv.failed(runs), 1)


class BenchmarkFile(unittest.TestCase):
    def test_metric_lists_match_the_harness(self):
        doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in doc["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in doc["per_layer"]], [(n, u) for n, u, _ in run.PER_LAYER])
        self.assertEqual([w["name"] for w in doc["workloads"]], list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
