"""Self-tests of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

import cases
import layers
import run


def _main(*argv: str) -> tuple[int, dict]:
    """Run the benchmark in-process; return its exit code and result line."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(list(argv))
    return code, json.loads(out.getvalue().splitlines()[-1])


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        cls.cli = run.load_cli()
        assert cls.cli is not None
        run.OUT_ROOT.mkdir(exist_ok=True)

    def setUp(self) -> None:
        self.work = Path(tempfile.mkdtemp(dir=run.OUT_ROOT))
        self.addCleanup(shutil.rmtree, self.work, True)

    def test_corrupted_pin_fails_the_run(self) -> None:
        key = "medium/c2c_heuristic/run:trace.jsonl"
        with mock.patch.dict(cases.PINNED["paper_grid"], {key: "0" * 64}):
            code, result = _main("--workload", "paper_grid", "--seconds", "0")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)

    def test_traced_pass_matches_untraced_and_unwraps(self) -> None:
        import teamsim.engine
        import teamsim.policy

        runner = run.Runner(self.cli, cases.paper_grid(run.ROOT, self.work, 3))
        plain = runner.run_pass(runner.workload.timed)
        tracer = layers.Tracer()
        tracer.install()
        try:
            # Both the defining module and the importing one see the wrapper.
            self.assertIs(teamsim.engine.build_context, teamsim.policy.build_context)
            self.assertTrue(getattr(teamsim.engine.build_context, layers.MARKER, False))
            traced = runner.run_pass(runner.workload.timed)
        finally:
            tracer.uninstall()
        self.assertEqual(plain.digests, traced.digests)
        self.assertEqual(plain.counts, traced.counts)
        self.assertEqual(runner.failed, 0)
        self.assertEqual(tracer.absent, [])
        self.assertTrue(tracer.spans)
        self.assertEqual(tracer.leftover_wrappers(), [])
        self.assertIs(teamsim.engine.build_context, teamsim.policy.build_context)
        self.assertFalse(getattr(teamsim.policy.build_context, layers.MARKER, False))

    def test_traced_run_reports_every_per_layer_metric(self) -> None:
        code, result = _main("--workload", "paper_grid", "--seconds", "0", "--trace", "1")
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(set(result["metrics"]), set(run.declared_metrics(True)))

    def test_missing_targets_are_absent_not_fatal(self) -> None:
        tracer = layers.Tracer()
        tracer.install(span_targets=("engine:World.no_such_query", "no_such_module:f",
                                     "planner:no_such_function"),
                       count_targets=("model:NoSuchClass.method",))
        tracer.uninstall()
        self.assertEqual(tracer.absent, ["engine.World.no_such_query", "no_such_module.f",
                                         "planner.no_such_function",
                                         "model.NoSuchClass.method"])
        self.assertEqual(tracer.leftover_wrappers(), [])

    def test_exits_nonzero_without_sources(self) -> None:
        shutil.copy(run.ROOT / "BENCHMARK.json", self.work)
        shutil.copytree(Path(run.__file__).parent, self.work / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "paper_grid", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=self.work, capture_output=True, text=True, timeout=60, check=False)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
