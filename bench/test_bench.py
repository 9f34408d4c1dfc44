"""Tests of the benchmark's own bookkeeping.

    python3 -m unittest discover -s bench
"""

import itertools
import tempfile
import threading
import time
import unittest
from pathlib import Path

import checks
import run
import spans

FIELD_ID = spans.FIELDS.index("id")
FIELD_PARENT = spans.FIELDS.index("parent")


def _spin(cpu_seconds):
    end = time.thread_time() + cpu_seconds
    while time.thread_time() < end:
        pass


class SpanBookkeeping(unittest.TestCase):
    def by_name(self, tracer):
        return {s["name"]: s for s in spans.self_times(tracer.spans)}

    def test_sleep_is_wait_and_spin_is_cpu(self):
        tracer = spans.Tracer()
        inner = tracer.wrap("inner", lambda: _spin(0.1))

        def outer_body():
            time.sleep(0.1)
            inner()

        tracer.wrap("outer", outer_body)()
        got = self.by_name(tracer)
        outer, inner_s = got["outer"], got["inner"]
        # the inner span is excluded from the outer one's self time
        self.assertAlmostEqual(outer["self_s"], outer["wall_s"] - inner_s["wall_s"], places=9)
        self.assertGreaterEqual(outer["self_s"], 0.1)
        # sleeping uses no CPU, so the outer self time is all wait
        self.assertLess(outer["self_s"] - outer["wait_s"], 0.02)
        # the inner span's own CPU time is the 0.1 s it spun
        self.assertAlmostEqual(inner_s["self_s"] - inner_s["wait_s"], 0.1, delta=0.01)
        self.assertEqual(tracer.spans[0][FIELD_PARENT], tracer.spans[1][FIELD_ID])

    def test_exact_arithmetic_with_overlapping_and_cross_thread_children(self):
        # id, parent, name, thread, start, end, cpu, p, cells
        records = [
            (1, None, "cli.main", 1, 0.0, 10.0, 4.0, None, None),
            (2, 1, "cohomology.h2", 1, 1.0, 3.0, 1.5, 5, None),
            (3, 1, "cohomology.h2", 2, 2.0, 6.0, 3.0, 5, None),  # other thread, overlaps
            (4, 3, "gf.rref", 2, 2.5, 3.5, 1.0, 5, 12),
        ]
        main, h2_a, h2_b, rref = spans.self_times(records)
        # children cover [1, 6] of the root: self 5; same-thread child CPU 1.5
        self.assertEqual(main["self_s"], 5.0)
        self.assertEqual(main["wait_s"], 5.0 - (4.0 - 1.5))
        self.assertEqual(h2_b["self_s"], 3.0)
        self.assertEqual(h2_b["wait_s"], 3.0 - (3.0 - 1.0))
        metrics = spans.layer_metrics(records, {})
        self.assertEqual(metrics["cohomology.h2.calls"], 2)
        self.assertEqual(metrics["cohomology.h2.self_s"], h2_a["self_s"] + h2_b["self_s"])
        self.assertEqual(metrics["gf.rref.cells"], 12)
        self.assertEqual(metrics["isoclass.iso_bruteforce.calls"], 0)

    def test_pool_tasks_inherit_the_submitting_span(self):
        from concurrent.futures import ThreadPoolExecutor

        tracer = spans.Tracer()
        pool_cls = tracer.pool_class(ThreadPoolExecutor)
        task = tracer.wrap("task", lambda x: x * 2)

        def submit_all():
            with pool_cls(max_workers=2) as pool:
                return list(pool.map(task, range(4)))

        self.assertEqual(tracer.wrap("main", submit_all)(), [0, 2, 4, 6])
        main_id = next(s[FIELD_ID] for s in tracer.spans if s[2] == "main")
        tasks = [s for s in tracer.spans if s[2] == "task"]
        self.assertEqual(len(tasks), 4)
        self.assertTrue(all(s[FIELD_PARENT] == main_id for s in tasks))

    def test_counts_are_exact_across_threads(self):
        tracer = spans.Tracer()
        f = tracer.count("f", lambda: None)
        threads = [threading.Thread(target=lambda: [f() for _ in range(5000)]) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        self.assertFalse(any(t.is_alive() for t in threads))
        self.assertEqual(tracer.counts["f"], 20000)


class OrbitPartition(unittest.TestCase):
    def test_p3_has_twelve_classes(self):
        lams = list(itertools.product(range(3), repeat=3))
        classes = checks.orbit_partition(3, lams)
        self.assertEqual(len(classes), 12)
        self.assertEqual(sorted(len(c) for c in classes), [1, 1, 1, 2, 2, 2, 2, 2, 2, 4, 4, 4])
        self.assertIn(frozenset({(0, 0, 0)}), classes)

    def test_iso_check_rejects_a_merged_partition(self):
        lams = list(itertools.product(range(3), repeat=3))
        classes = [sorted(c) for c in checks.orbit_partition(3, lams)]
        report = {"classes": classes, "class_count": len(classes)}
        self.assertEqual(checks.check_iso(report, 3, 27), (27, []))
        merged = [classes[0] + classes[1], *classes[2:]]
        _, problems = checks.check_iso({"classes": merged, "class_count": 11}, 3, 27)
        self.assertTrue(problems)


class ClosedForms(unittest.TestCase):
    def test_dimensions(self):
        self.assertEqual(checks.closed_form_dims(7, (0,) * 7), {"H1": 2, "H1+": 2, "H2": 4, "H2+": 11})
        self.assertEqual(checks.closed_form_dims(7, (1,) + (0,) * 6)["H2+"], 9)
        self.assertEqual(checks.closed_form_dims(2, (0, 1)), {"H1": 2, "H1+": 1, "H2": 1, "H2+": 1})


class MissingReport(unittest.TestCase):
    def test_an_invocation_without_a_report_fails_its_operations(self):
        # the CLI refuses an unknown command with a usage error and no report
        command = run.Command(["no-such-command"], lambda r: (1, []), 5)
        with tempfile.TemporaryDirectory() as tmp:
            rnd = run.run_round([command], 0, Path(tmp), time.monotonic() + 60, traced=False)
        self.assertEqual((rnd.attempted, rnd.failed), (5, 5))
        self.assertTrue(rnd.problems)


if __name__ == "__main__":
    unittest.main()
