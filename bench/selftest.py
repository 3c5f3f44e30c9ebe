"""Self-tests of the benchmark harness.

    python3 bench/selftest.py

Checks that generation is a function of the seed, that the expected values
agree with simploc on one small instance of every family, that the checker
notices a changed record, and that a traced run leaves every binding of
simploc as it found it.
"""

from __future__ import annotations

import hashlib
import inspect
import os
import random
import shutil
import signal
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import expected  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORK = run.WORK_DIR / "selftest"


def _digest(workload: str, seed: int) -> str:
    h = hashlib.sha256()
    for case in workloads.generate(workload, seed):
        h.update(repr((case.name, case.family, case.text, sorted(case.files.items()), case.shipped)).encode())
    return h.hexdigest()


def _smallest_cases(seed: int = 0) -> list[workloads.Case]:
    rng = random.Random(seed)
    return [
        builder(rng, min(sizes))
        for plan in workloads.PLANS.values()
        for _, builder, sizes in plan
    ]


class GenerationTest(unittest.TestCase):
    def test_same_seed_same_bytes_across_processes(self):
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); import selftest; "
            "print(*(selftest._digest(w, 5) for w in selftest.workloads.WORKLOADS))"
        )
        outputs = set()
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            proc = subprocess.run(
                [sys.executable, "-c", code, str(HERE)], env=env, capture_output=True, text=True, check=True
            )
            outputs.add(proc.stdout)
        outputs.add(" ".join(_digest(w, 5) for w in workloads.WORKLOADS) + "\n")
        self.assertEqual(len(outputs), 1)

    def test_other_seed_differs(self):
        for workload in workloads.WORKLOADS:
            self.assertNotEqual(_digest(workload, 5), _digest(workload, 6), workload)


class ExpectedValuesTest(unittest.TestCase):
    """The expected-value functions agree with the engine, and disagree
    with a changed output."""

    @classmethod
    def setUpClass(cls):
        import simploc.cli

        cls.cli = simploc.cli
        signal.signal(signal.SIGALRM, run._on_alarm)
        shutil.rmtree(WORK, ignore_errors=True)
        WORK.mkdir(parents=True)
        cls.cwd = os.getcwd()

    @classmethod
    def tearDownClass(cls):
        os.chdir(cls.cwd)
        shutil.rmtree(WORK, ignore_errors=True)

    def test_each_family_agrees_with_the_engine(self):
        for job in run._write(_smallest_cases(), WORK):
            with self.subTest(case=job.case.name):
                result = run._run_one(self.cli, job, run.SpeedGauge())
                self.assertEqual(result.code, 0)
                self.assertIsNone(expected.mismatch(job.case.expect(), result.text))

    def test_changed_record_is_caught(self):
        job = run._write([workloads.random_map_case(random.Random(3), 6)], WORK)[0]
        text = run._run_one(self.cli, job, run.SpeedGauge()).text
        self.assertIsNone(expected.mismatch(job.case.expect(), text))
        self.assertIsNotNone(expected.mismatch(job.case.expect(), text.replace('"free_rank": 1', '"free_rank": 2', 1)))
        self.assertIsNotNone(expected.mismatch(job.case.expect(), text.rsplit("\n", 2)[0] + "\n"))


class TracingTest(unittest.TestCase):
    def _bindings(self):
        import simploc

        spaces = [simploc] + [sys.modules[f"simploc.{m}"] for m in tracing.MODULES]
        out = {(id(ns), attr): obj for ns in spaces for attr, obj in vars(ns).items()}
        for mod, cls, attr in tracing.METHODS:
            owner = getattr(sys.modules[f"simploc.{mod}"], cls)
            out[(id(owner), attr)] = owner.__dict__[attr]
        return out

    def test_restore_puts_every_binding_back(self):
        import simploc.cli
        import simploc.coeff
        import simploc.dsl
        import simploc.engine

        before = self._bindings()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertIs(simploc.engine.snf, simploc.coeff.snf)
            self.assertTrue(hasattr(simploc.engine.snf, "__wrapped__"))
            self.assertTrue(hasattr(simploc.cli.classify, "__wrapped__"))
            shutil.rmtree(WORK, ignore_errors=True)
            WORK.mkdir(parents=True)
            cwd = os.getcwd()
            signal.signal(signal.SIGALRM, run._on_alarm)
            try:
                for job in run._write(_smallest_cases()[:1] + [workloads.planted_case(random.Random(1), 6)], WORK):
                    self.assertEqual(run._run_one(simploc.cli, job, run.SpeedGauge()).code, 0)
                    tracer.next_script()
            finally:
                os.chdir(cwd)
                shutil.rmtree(WORK, ignore_errors=True)
        finally:
            tracer.restore()
        after = self._bindings()
        self.assertEqual(before.keys(), after.keys())
        for key, obj in before.items():
            self.assertIs(after[key], obj, key)
        self.assertIs(simploc.engine.snf, simploc.coeff.snf)
        self.assertIs(simploc.engine.classify, simploc.dsl.classify)
        self.assertIs(simploc.cli.classify, simploc.dsl.classify)
        self.assertFalse(any(hasattr(f, "__wrapped__") for f in vars(simploc.dsl).values() if inspect.isfunction(f)))
        metrics = tracer.layer_metrics(lines_parsed=1, records=1, overhead_s=0.0)
        self.assertGreater(metrics["dsl.nodes"], 0)
        self.assertGreaterEqual(metrics["dsl.walk_per_node"], 1.0)
        self.assertGreater(metrics["coeff.snf.matrices"], 0)
        self.assertGreater(metrics["coeff.snf.max_bits"], 0)
        self.assertTrue(tracer.spans)


if __name__ == "__main__":
    unittest.main()
