"""Self-tests of the benchmark itself (not of ldk).

    python3 perfbench/selftest.py

Run from the root of an ldk checkout; takes well under a minute.  The file
name keeps it out of the repository's pytest collection.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import unittest

import corpus
import run
import spans

ROOT = corpus.HERE.parent


def _bench(*args: str) -> tuple:
    proc = subprocess.run([sys.executable, str(corpus.HERE / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    return proc.returncode, json.loads(proc.stdout.splitlines()[-1])


class CorpusTest(unittest.TestCase):
    def test_same_seed_same_corpus(self):
        for workload in run.WORKLOADS:
            pool = corpus.load_pool(workload)
            first = [e["text"] for e in corpus.draw_block(pool, 7)]
            self.assertEqual(first, [e["text"] for e in corpus.draw_block(pool, 7)])
            self.assertNotEqual(first, [e["text"] for e in corpus.draw_block(pool, 8)])

    def test_generators_are_seeded(self):
        for make in (lambda r: corpus.balanced_identity(r, 24),
                     lambda r: corpus.repeated_identity(r, 4, 5, 3),
                     lambda r: corpus.deep_identity(r, 650)):
            self.assertEqual(make(random.Random(3)), make(random.Random(3)))

    def test_every_block_has_the_class_mix(self):
        for workload in run.WORKLOADS:
            pool = corpus.load_pool(workload)
            mix = {name: spec["picks"] for name, spec in pool["classes"].items()}
            for seed in (1, 2, 3):
                self.assertEqual(corpus.block_summary(corpus.draw_block(pool, seed)), mix)

    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(run.PER_LAYER))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))


class OutputCheckTest(unittest.TestCase):
    def _problems(self, workload: str, mutate, defect: bool = False) -> list:
        """Output-check problems of three ops, the first of them mutated;
        with ``defect``, the first is a known-defect input."""
        setup = run.set_up(workload, 5, smoke=True)
        block = sorted(setup.block, key=lambda e: e["defect"] is None)
        setup.block = [dict(e) for e in block if defect or e["defect"] is None][:3]
        setup.argvs = [run._argv(setup.pool, e["text"]) for e in setup.block]
        mutate(setup.block[0])
        ops, _, _, first, mismatched = run.measure(setup, 0.0, 1, None)
        return run.check_outputs(setup, ops, first, mismatched)

    def test_reference_passes_unchanged(self):
        self.assertEqual(self._problems("cli", lambda entry: None), [])

    def test_mutated_verdict_fails_the_check(self):
        def flip(entry):
            holds = dict(entry["expect"]["holds"])
            holds["0"] = not holds["0"]
            entry["expect"] = {"holds": holds}
        self.assertTrue(self._problems("balanced", flip))

    def test_known_defect_passes_with_its_own_error(self):
        self.assertEqual(self._problems("normalize", lambda entry: None, True), [])

    def test_known_defect_with_another_error_fails_the_check(self):
        def relabel(entry):
            entry["defect"] = "path_limit"
        self.assertTrue(self._problems("normalize", relabel, True))

    def test_mutated_balanced_identity_fails_the_check(self):
        def corrupt(entry):
            entry["expect"] = dict(entry["expect"], balanced_sha256="0" * 64)
        self.assertTrue(self._problems("normalize", corrupt))


class TracerTest(unittest.TestCase):
    def test_missing_function_reads_null(self):
        import ldk.linsolve
        saved = ldk.linsolve.solve
        del ldk.linsolve.solve
        try:
            tracer = spans.Tracer()
            tracer.install()
            tracer.uninstall()
        finally:
            ldk.linsolve.solve = saved
        self.assertEqual(tracer.missing, ["ldk.linsolve.solve"])
        self.assertEqual(tracer.missing_layers(), {"linsolve": "ldk.linsolve.solve"})

    def test_uninstall_restores_originals(self):
        import ldk.decision
        original = ldk.decision.one_balance
        tracer = spans.Tracer()
        tracer.install()
        self.assertIsNot(ldk.decision.one_balance, original)
        tracer.uninstall()
        self.assertIs(ldk.decision.one_balance, original)


class SmokeTest(unittest.TestCase):
    def test_every_workload_smoke(self):
        for workload in run.WORKLOADS:
            code, result = _bench("--workload", workload, "--seed", "3",
                                  "--smoke", "--trace", "0")
            self.assertEqual(code, 0, workload)
            self.assertTrue(result["correct"])
            self.assertEqual(set(result["metrics"]), {m for m, _ in run.END_TO_END})

    def test_traced_counts_repeat_and_match(self):
        expected = {
            "selfdual": {"linsolve.factorizations": 20, "decision.checks": 15},
            "balanced": {"linsolve.factorizations": 1, "balance.splits": 0},
            "normalize": {"linsolve.factorizations": 0, "pbg.problems": 0,
                          "planegraph.validations": 0,
                          "planegraph.control_paths": 0},
        }
        counts = [name for name, unit in run.PER_LAYER if unit == "count"]
        for workload, exact in expected.items():
            first, second = [
                {name: metrics[name]["value"] for name in counts}
                for metrics in (_bench("--workload", workload, "--seed", "4",
                                       "--smoke", "--trace", "1")[1]["metrics"]
                                for _ in range(2))]
            self.assertEqual(first, second, workload)
            for name, value in exact.items():
                self.assertEqual(first[name], value, (workload, name))

    def test_refuses_a_tree_without_ldk(self):
        bare = run.OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(corpus.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "cli",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=170)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    sys.path.insert(0, str(run.SRC))
    unittest.main()
