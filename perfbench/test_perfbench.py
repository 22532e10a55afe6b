"""Self-tests of the benchmark.

    python3 -m unittest discover -s perfbench -t perfbench
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import calibration  # noqa: E402
import suffixconvex as sc  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def span(name, start, end, parent=None, error=None):
    return [name, start, end, parent, 0, None, error]


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            span("verify.run_verification", 0.0, 10.0),
            span("automata.complexity", 1.0, 4.0, parent=0),
            span("automata.minimize", 2.0, 3.0, parent=1),
            span("automata.minimize", 5.0, 7.0, parent=0),
        ]
        self.assertEqual(tracing.self_times(spans), [5.0, 2.0, 1.0, 2.0])
        metrics = tracing.layer_metrics(spans)
        self.assertEqual(metrics["automata.minimize.calls"], 2)
        self.assertEqual(metrics["automata.minimize.self_s"], 3.0)
        self.assertEqual(metrics["verify.run_verification.self_s"], 5.0)

    def test_speed_samples_are_no_layer_time(self):
        w = sc.make_witness("regular", 3)
        with tracing.Tracer(pass_id=0) as tracer:
            sc.minimize(w)
            minimize = tracer.spans[0]
            tracer._stack.append(minimize)  # as if a sample interrupted minimize
            tracer.record_sample(minimize[tracing.START], minimize[tracing.END])
            tracer._stack.pop()
        spans = tracer.indexed_spans()
        self.assertEqual([s[tracing.NAME] for s in spans], ["automata.minimize", tracing.SAMPLE])
        self.assertEqual(spans[1][tracing.PARENT], 0)
        metrics = tracing.layer_metrics(spans)
        self.assertEqual(metrics["automata.minimize.self_s"], 0.0)
        self.assertEqual(metrics["automata.minimize.calls"], 1)

    def test_overlapping_children_are_covered_once(self):
        spans = [span("a.x", 0.0, 10.0), span("a.y", 1.0, 6.0, 0), span("a.y", 4.0, 8.0, 0)]
        self.assertEqual(tracing.self_times(spans)[0], 3.0)


class TracerTest(unittest.TestCase):
    def namespaces(self):
        return {
            name: dict(vars(module))
            for name, module in sys.modules.items()
            if name == "suffixconvex" or name.startswith("suffixconvex.")
        }

    def test_wraps_every_namespace_and_restores(self):
        before = self.namespaces()
        w = sc.make_witness("left-ideal", 4)
        with tracing.Tracer(pass_id=7) as tracer:
            self.assertIsNot(sc.minimize, before["suffixconvex"]["minimize"])
            self.assertIsNot(sc.measures.minimize, before["suffixconvex.measures"]["minimize"])
            self.assertEqual(sc.complexity(sc.reverse(w)), 9)
        self.assertEqual(self.namespaces(), before)
        spans = tracer.indexed_spans()
        names = [s[tracing.NAME] for s in spans]
        self.assertEqual(names, ["operations.reverse", "automata.determinize",
                                 "automata.complexity", "automata.minimize"])
        self.assertEqual([s[tracing.PARENT] for s in spans], [None, 0, None, 2])
        self.assertTrue(all(s[tracing.PASS] == 7 for s in spans))
        self.assertEqual(spans[3][tracing.COUNTS], {"states_in": 9, "states_out": 9})

    def test_restores_after_an_error_and_counts_it_once(self):
        before = self.namespaces()
        w = sc.make_witness("left-ideal", 5)
        with self.assertRaises(sc.LimitError):
            with tracing.Tracer(pass_id=0) as tracer:
                sc.syntactic_semigroup_size(w)  # a traced call that succeeds
                sc.atoms(w, limit=3)
        self.assertEqual(self.namespaces(), before)
        metrics = tracing.layer_metrics(tracer.indexed_spans())
        self.assertEqual(metrics["measures.errors"], 1)
        self.assertEqual(metrics["automata.errors"], 0)
        self.assertEqual(metrics["measures.semigroup.elements"], 5**4 + 4)

    def test_span_file_reproduces_the_metrics(self):
        w = sc.make_witness("suffix-closed", 4)
        with tracing.Tracer(pass_id=1) as tracer:
            sc.classify(w)
            sc.atoms(w)
        with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
            path = os.path.join(tmp, "spans.json")
            tracer.write(path, workload="test", seed=0)
            self.assertEqual(tracing.layer_metrics(tracing.read_spans(path)),
                             tracing.layer_metrics(tracer.indexed_spans()))


class CorpusTest(unittest.TestCase):
    def run_items(self, items):
        times, outcomes = worker.run_pass(items, contextlib.nullcontext(), calibration.Sampler())
        return worker.check_pass(items, outcomes)

    def test_another_seed_passes_its_checks(self):
        items = workloads.setup_small_corpus(sc, seed=987654321)
        attempted, failed, messages = self.run_items(items)
        self.assertEqual((attempted, failed, messages), (len(items), 0, []))

    def test_seeds_choose_different_items_of_like_strata(self):
        pool = workloads.corpus_pool()
        first, second = (workloads.corpus_selection(pool, seed) for seed in (1, 2))
        self.assertNotEqual(sorted(first), sorted(second))

        def strata(chosen):
            return sorted((pool[i][0], len(pool[i][1])) for i in chosen)

        self.assertEqual(strata(first), strata(second))

    def test_checks_reject_wrong_results(self):
        for setup in (workloads.setup_ops_large, workloads.setup_measures_large):
            for item in setup(sc, seed=0):
                wrong = {frozenset(): 0} if item.size > 1 else -1
                self.assertTrue(item.check(wrong), item.label)


class CommandTest(unittest.TestCase):
    """The command, run from copies of the checkout."""

    def setUp(self):
        self.tmp = tempfile.mkdtemp(dir=ROOT, prefix=".perfbench-selftest-")
        ignore = shutil.ignore_patterns("__pycache__")
        shutil.copytree(HERE, os.path.join(self.tmp, "perfbench"), ignore=ignore)

    def tearDown(self):
        shutil.rmtree(self.tmp)

    def run_command(self, workload, seed):
        return subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", "1", "--trace", "0"],
            cwd=self.tmp, capture_output=True, text=True, timeout=170,
        )

    def test_wrong_expected_value_fails_the_run(self):
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(self.tmp, "src"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        path = os.path.join(self.tmp, "perfbench", "reference", "corpus_digests.json")
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        index = workloads.corpus_selection(workloads.corpus_pool(), 5)[0]
        doc["digests"][index] = "0" * 16
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        done = self.run_command("small-corpus", 5)
        self.assertEqual(done.returncode, 1, done.stderr)
        result = json.loads(done.stdout.splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertIn(f"FAILED pool[{index}]: digest", done.stdout)

    def test_without_the_package_it_fails_without_a_result(self):
        done = self.run_command("ops-large", 1)
        self.assertEqual(done.returncode, 2)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
