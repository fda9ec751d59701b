"""Smoke tests for the benchmark itself (stdlib unittest).

Run from the repository root:

    python3 perfbench/smoke.py

They check the tracer's self-time arithmetic on a synthetic nested call
with a scripted clock, that installing the tracer rebinds and restores
every reference gpdkit holds, and that each workload runs once at its
smallest size, passes its checks and emits every metric that
BENCHMARK.json names, with its unit.
"""

from __future__ import annotations

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from tracer import Target, Tracer  # noqa: E402


class ScriptedClock:
    """Returns the given readings in order, one per call."""

    def __init__(self, readings):
        self.readings = iter(readings)

    def __call__(self) -> int:
        return next(self.readings)


class SelfTimeArithmetic(unittest.TestCase):
    def test_nested_calls_split_time_exactly(self):
        # outer [0, 100] calls inner [10, 40] and inner [50, 90];
        # the second inner call makes one leaf call [60, 65]
        tracer = Tracer(ScriptedClock([0, 10, 40, 50, 60, 65, 90, 100]))
        leaf = tracer.wrap("leaf", lambda: None)

        def inner_body(depth):
            if depth:
                leaf()

        inner = tracer.wrap("inner", inner_body)
        outer = tracer.wrap("outer", lambda: (inner(0), inner(1)))
        tracer.active = True
        outer()
        tracer.active = False

        self.assertEqual(tracer.stats["outer"].self_ns, 100 - 30 - 40)
        self.assertEqual(tracer.stats["inner"].self_ns, 30 + (40 - 5))
        self.assertEqual(tracer.stats["inner"].calls, 2)
        self.assertEqual(tracer.stats["leaf"].self_ns, 5)
        self.assertEqual(tracer.root_ns, 100)
        ok, detail = tracer.check_accounting(wall_ns=120)
        self.assertTrue(ok, detail)

    def test_missed_nesting_fails_the_accounting_check(self):
        tracer = Tracer(ScriptedClock([0, 10, 20, 30]))
        inner = tracer.wrap("inner", lambda: None)
        outer = tracer.wrap("outer", inner)
        tracer.active = True
        outer()
        tracer.stats["outer"].self_ns += 10  # as if the child were not subtracted
        ok, _ = tracer.check_accounting(wall_ns=30)
        self.assertFalse(ok)

    def test_inactive_tracer_records_nothing(self):
        tracer = Tracer(ScriptedClock([]))
        self.assertEqual(tracer.wrap("f", lambda x: x + 1)(1), 2)
        self.assertEqual(tracer.stats, {})


class Installation(unittest.TestCase):
    def test_install_rebinds_everywhere_and_uninstall_restores(self):
        import gpdkit
        import gpdkit.cli
        from gpdkit.bundles import PrincipalBundle

        validators = gpdkit.cli._VALIDATORS
        fiber = PrincipalBundle.__dict__["fiber"]
        original = gpdkit.core.validate_groupoid
        tracer = Tracer()
        tracer.install([
            Target("core.validate_groupoid", "gpdkit.core", "validate_groupoid"),
            Target("bundles.fiber", "gpdkit.bundles", "fiber", owner="PrincipalBundle"),
        ])
        try:
            wrapped = gpdkit.core.validate_groupoid
            self.assertIsNot(wrapped, original)
            self.assertIs(gpdkit.validate_groupoid, wrapped)
            self.assertIs(gpdkit.cli.validate_groupoid, wrapped)
            self.assertIs(gpdkit.cli._VALIDATORS[0][1], wrapped)
            self.assertIsNot(PrincipalBundle.__dict__["fiber"], fiber)
            tracer.active = True
            B = gpdkit.unit_bundle(gpdkit.make_pair_groupoid(2))
            B.fiber(sorted(B.base)[0])
            tracer.active = False
            self.assertEqual(tracer.stats["bundles.fiber"].calls, 1)
        finally:
            tracer.uninstall()
        self.assertIs(gpdkit.core.validate_groupoid, original)
        self.assertIs(gpdkit.validate_groupoid, original)
        self.assertIs(gpdkit.cli._VALIDATORS, validators)
        self.assertIs(PrincipalBundle.__dict__["fiber"], fiber)


def run_smallest(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
           "--seconds", "0", "--trace", str(trace), "--smallest"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


class Workloads(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        cls.end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        cls.per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        cls.workloads = [w["name"] for w in spec["workloads"]]

    def test_each_workload_emits_every_metric(self):
        for workload in self.workloads:
            for trace, wanted in ((0, self.end_to_end), (1, self.per_layer)):
                with self.subTest(workload=workload, trace=trace):
                    result = run_smallest(workload, trace)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, wanted)


if __name__ == "__main__":
    unittest.main()
