"""Tests of the benchmark itself: tiny workloads, the checkers and the trace arithmetic.

    python3 -m pytest perfbench          # or: python3 -m unittest discover perfbench
"""

from __future__ import annotations

import dataclasses
import json
import signal
import sys
import time
import unittest
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


class TinyCensus(wl.Census6):
    # the d=4 census: 3 settings in 3 classes
    D = 4
    SETTINGS = 3
    CLASSES = 3
    SETTINGS_DIGEST = "85561192e26aa9cb"
    PARTITION_DIGEST = "7cae55b3778d5d90"


class TinyToric(wl.ToricQueries):
    SMALL = 10
    STRATA = ((2, 2), (2, 4), (3, 4), (3, 5))
    DENSE = (("cycle3x2", "cycle", 3, 2, 8),)


class TinyConifold(wl.ConifoldAlgebra):
    LIGHT = 4
    DENSE = 1
    POINTS = 20


TINY = {"census6": TinyCensus, "toric_queries": TinyToric, "conifold_algebra": TinyConifold}


def lib():
    return run.import_qsing()


class TinyWorkloads(unittest.TestCase):
    def setUp(self):
        self.old_handler = signal.signal(signal.SIGALRM, wl.on_alarm)

    def tearDown(self):
        signal.signal(signal.SIGALRM, self.old_handler)

    def run_tiny(self, name, trace):
        with mock.patch.dict(run.WORKLOADS, TINY):
            return run.run_workload(name, seed=3, seconds=0, trace=trace)

    def test_every_end_to_end_metric(self):
        expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
        for name in TINY:
            with self.subTest(workload=name):
                report = self.run_tiny(name, trace=False)
                line = run.summary_line(report)
                self.assertTrue(line["correct"], report["failures"])
                self.assertEqual(line["failed"], 0, report["failures"])
                self.assertEqual({k: v["unit"] for k, v in line["metrics"].items()}, expected)
                self.assertTrue(all(v["value"] > 0 for v in line["metrics"].values()))

    def test_every_per_layer_metric(self):
        expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        for name in TINY:
            with self.subTest(workload=name):
                report = self.run_tiny(name, trace=True)
                line = run.summary_line(report)
                self.assertTrue(line["correct"], report["failures"])
                self.assertEqual({k: v["unit"] for k, v in line["metrics"].items()}, expected)

    def test_layers_seen_where_predicted(self):
        calls = {
            "census6": "core.euler_form.calls",
            "toric_queries": "toric.proj_charts.calls",
            "conifold_algebra": "conifold.multiply.calls",
        }
        for name, key in calls.items():
            with self.subTest(workload=name):
                metrics = self.run_tiny(name, trace=True)["per_layer"]
                self.assertGreater(metrics[key]["value"], 0)
                others = [k for k in calls.values() if k != key]
                self.assertEqual([metrics[k]["value"] for k in others], [0, 0])

    def test_benchmark_file_lists_every_workload(self):
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]], list(wl.WORKLOADS))


class Checkers(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.lib = lib()

    def test_census_drops_a_setting(self):
        census = TinyCensus(self.lib, 0)
        settings = self.lib.classification.enumerate_reduced_singular(census.D)
        self.assertIsNone(census.check_settings(settings))
        self.assertIsNotNone(census.check_settings(settings[:-1]))
        swapped = settings[:-1] + [self.lib.classification.enumerate_reduced_singular(3)[0]]
        self.assertIsNotNone(census.check_settings(swapped))

    def test_census_partition(self):
        census = TinyCensus(self.lib, 0)
        settings = self.lib.classification.enumerate_reduced_singular(census.D)
        classes = self.lib.classification.singular_type_classes(settings)
        self.assertIsNone(census.check_classes(classes, settings))
        merged = dataclasses.replace(classes[0], members=classes[0].members + classes[1].members)
        self.assertIsNotNone(census.check_classes([merged] + classes[2:], settings))

    def test_conifold_flipped_coefficient(self):
        work = TinyConifold(self.lib, 5)
        left, right = work.associativity(*work.light[0])
        self.assertIsNone(work.check_equal((left, right)))
        word = next(iter(left.coeffs))
        flipped = dict(left.coeffs)
        flipped[word] = -flipped[word]
        corrupted = self.lib.conifold.ConifoldElement(flipped)
        self.assertIsNotNone(work.check_equal((corrupted, right)))

    def test_conifold_points(self):
        work = TinyConifold(self.lib, 5)
        cf = self.lib.conifold
        points = cf.trep2_sample(3, seed=1)
        out = [(p, cf.trep2_jacobian_rank(p), cf.evaluate_at_point(work.d, p)) for p in points]
        self.assertIsNone(work.check_points(out))
        p, rank, m = out[0]
        self.assertIsNotNone(work.check_points([(p, 2, m)]))
        self.assertIsNotNone(work.check_points([(p, rank, ((m[0][0] + 1, m[0][1]), m[1]))]))

    def test_toric_perturbed_relation(self):
        work = TinyToric(self.lib, 2)
        conifold = [[0, 2], [2, 0]]  # invariants xy = uv: one relation
        s = self.lib.core.MarkedQuiverSetting.make([1, 1], conifold)
        legend = wl.arrow_legend(conifold)
        out = work.small_call(s, (-1, 1), [s.arrow_list()[:3]])
        self.assertIsNone(work.check_small(legend, out))
        gens, rels, verdicts, fiber, charts = out
        lhs = list(rels[0].lhs)
        lhs[0] += 1
        bad = [dataclasses.replace(rels[0], lhs=tuple(lhs))] + rels[1:]
        self.assertIsNotNone(work.check_small(legend, (gens, bad, verdicts, fiber, charts)))
        king, semi = verdicts[0]
        bad_verdicts = [(king, not semi)] + verdicts[1:]
        self.assertIsNotNone(work.check_small(legend, (gens, rels, bad_verdicts, fiber, charts)))

    def test_toric_inputs_follow_the_seed(self):
        def inputs(seed):
            return [(s.arrows, theta, supports) for s, theta, supports, _ in TinyToric(self.lib, seed).small]

        first, again, other = inputs(9), inputs(9), inputs(10)
        self.assertEqual(first, again)
        self.assertNotEqual(first, other)
        veronese = [theta for n, (_, theta, _) in enumerate(first) if n % 10 == 9]
        self.assertTrue(veronese and all(t % 2 == 0 for theta in veronese for t in theta))


    def test_conifold_inputs_follow_the_seed(self):
        def light(seed):
            return [tuple(e.coeffs for e in triple) for triple in TinyConifold(self.lib, seed).light]

        first, again, other = light(9), light(9), light(10)
        self.assertEqual(first, again)
        self.assertNotEqual(first, other)


class Deadline(unittest.TestCase):
    def test_overrun_counts_as_missed(self):
        old = signal.signal(signal.SIGALRM, wl.on_alarm)
        try:
            def spin():
                end = time.perf_counter() + 5
                while time.perf_counter() < end:
                    pass

            result, value = wl.run_item("slow", spin, lambda _: None, 0.05)
            self.assertEqual(result.outcome, "deadline")
            self.assertLess(result.latency_s, 1)
            result, _ = wl.run_item("fast", lambda: 1, lambda v: None if v == 1 else "bad", 1.0)
            self.assertEqual(result.outcome, "ok")
            result, _ = wl.run_item("wrong", lambda: 2, lambda v: None if v == 1 else "bad", 1.0)
            self.assertEqual(result.outcome, "check")
            result, _ = wl.run_item("raises", lambda: 1 / 0, lambda v: None, 1.0)
            self.assertEqual(result.outcome, "raised")
            # traced, the item runs on past its deadline and still counts as missed
            result, _ = wl.run_item("slow", lambda: time.sleep(0.1), lambda _: None, 0.05, Tracer())
            self.assertEqual(result.outcome, "deadline")
            self.assertGreaterEqual(result.latency_s, 0.1)
            # up to ten deadlines
            result, _ = wl.run_item("slow", spin, lambda _: None, 0.05, Tracer())
            self.assertEqual(result.outcome, "deadline")
            self.assertLess(result.latency_s, 1)
        finally:
            signal.signal(signal.SIGALRM, old)


class TraceArithmetic(unittest.TestCase):
    def ticking_tracer(self):
        ticks = iter(range(1000))
        return Tracer(clock=lambda: float(next(ticks)))

    def test_self_time_excludes_children(self):
        ns = type("ns", (), {})()
        ns.leaf = lambda: None
        ns.hot = lambda: None
        ns.mid = lambda: (ns.leaf(), ns.hot(), ns.leaf())
        t = self.ticking_tracer()
        t.add(ns, "leaf", "leaf")
        t.add(ns, "hot", "hot", span=False)
        t.add(ns, "mid", "mid")
        with t.installed(), t.item("x"):
            ns.mid()
        spans = {s[1]: s for s in t.spans}
        self.assertEqual(len(t.spans), 4)  # item, mid, two leaves; hot is a counter
        self.assertEqual(t.layer("leaf").calls, 2)
        self.assertEqual(t.layer("hot").calls, 1)
        mid = spans["mid"]
        self.assertEqual(mid[3], spans["item.x"][0])
        self.assertTrue(all(s[3] == mid[0] for s in t.spans if s[1] == "leaf"))
        # each wrapped call reads the clock twice, so every leaf lasts 1 tick
        self.assertEqual(t.layer("leaf").self_s, 2.0)
        self.assertEqual(t.layer("hot").self_s, 1.0)
        self.assertEqual(mid[5] - mid[4], 7.0)
        self.assertEqual(t.layer("mid").self_s, 7.0 - 3.0)
        self.assertEqual((mid[5] - mid[4]) - mid[6], 4.0)

    def test_parent_covers_children(self):
        old = signal.signal(signal.SIGALRM, wl.on_alarm)
        try:
            library = lib()
            t = run.instrument(library)
            TinyToric(library, 4).run_pass(t)
        finally:
            signal.signal(signal.SIGALRM, old)
        self.assertTrue(t.spans)
        children = {}
        for s in t.spans:
            children[s[3]] = children.get(s[3], 0.0) + (s[5] - s[4])
        for sid, name, item, parent, start, end, child_s, ok in t.spans:
            self.assertGreaterEqual(end - start, child_s, name)
            self.assertGreaterEqual(child_s + 1e-9, children.get(sid, 0.0), name)
        items = {s[2] for s in t.spans}
        roots = [s for s in t.spans if s[1].startswith("item.")]
        self.assertEqual(len(items), len(roots))

    def test_exception_unwinds_the_stack(self):
        ns = type("ns", (), {})()

        def boom():
            raise ValueError("x")

        ns.boom = boom
        t = self.ticking_tracer()
        t.add(ns, "boom", "boom")
        with t.installed(), self.assertRaises(ValueError):
            ns.boom()
        self.assertEqual(t.stack, [])
        self.assertEqual([(s[1], s[7]) for s in t.spans], [("boom", False)])

    def test_layers_open_at_a_moment(self):
        ns = type("ns", (), {})()
        ns.leaf = lambda: None
        ns.mid = lambda: (ns.leaf(), ns.leaf())
        t = self.ticking_tracer()
        t.add(ns, "leaf", "leaf")
        t.add(ns, "mid", "mid")
        with t.installed():
            for _ in range(2):
                with t.item("x"):
                    ns.mid()
        # ticks: item 0-7 (mid 1-6, leaves 2-3 and 4-5), item 8-15
        self.assertEqual(t.open_at({1: 2.5, 2: 8.5}), {1: {"mid", "leaf"}})
        self.assertEqual(t.open_at({1: 3.5, 2: 9.5}), {1: {"mid"}, 2: {"mid"}})


if __name__ == "__main__":
    unittest.main()
