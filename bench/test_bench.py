"""Tests of the benchmark's generators and metric definitions (stdlib unittest).

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

import json
import random
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import generators  # noqa: E402


class GeneratorTests(unittest.TestCase):
    def draws(self, make, seed):
        rng = random.Random(seed)
        return [make(rng) for _ in range(5)]

    def check_seeding(self, make):
        self.assertEqual(self.draws(make, 7), self.draws(make, 7))
        self.assertNotEqual(self.draws(make, 7), self.draws(make, 8))

    def test_random_3sat_seeding(self):
        self.check_seeding(lambda rng: generators.random_3sat(rng, 3, 3))

    def test_planted_3sat_seeding(self):
        self.check_seeding(lambda rng: generators.planted_3sat(rng, 20, 66))

    def test_gnp_seeding(self):
        self.check_seeding(lambda rng: generators.gnp(rng, 18, 0.3))

    def test_planted_assignment_satisfies_every_clause(self):
        for seed in range(50):
            rng = random.Random(seed)
            v = rng.randint(3, 61)
            num_vars, clauses, planted = generators.planted_3sat(rng, v, round(3.3 * v))
            self.assertEqual((num_vars, len(clauses)), (v, round(3.3 * v)))
            for clause in clauses:
                self.assertEqual(len({abs(lit) for lit in clause}), 3)
                self.assertTrue(any(planted[abs(lit)] == (lit > 0) for lit in clause), clause)

    def test_random_3sat_literals_in_range(self):
        _, clauses = generators.random_3sat(random.Random(1), 3, 40)
        self.assertTrue(all(1 <= abs(lit) <= 3 for cl in clauses for lit in cl))

    def test_gnp_edges_are_simple_and_ordered(self):
        n, edges = generators.gnp(random.Random(3), 20, 0.3)
        self.assertEqual(len(edges), len(set(edges)))
        self.assertTrue(all(0 <= u < v < n for u, v in edges))


class WorkloadTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        import workloads

        cls.workloads = workloads

    def test_reduction_scale_order_follows_the_seed(self):
        def names(seed):
            return [op.name for op in self.workloads.reduction_scale(seed).ops]

        self.assertEqual(names(5), names(5))
        self.assertNotEqual(names(5), names(6))

    def test_fixed_pools_are_reordered_by_the_seed(self):
        for build in (self.workloads.sat_equiv, self.workloads.bounds_gnp):
            a, b = build(1).ops, build(2).ops
            self.assertEqual(sorted(op.name for op in a), sorted(op.name for op in b))
            self.assertNotEqual([op.name for op in a], [op.name for op in b])
            self.assertEqual([op.name for op in a], [op.name for op in build(1).ops])


class MetricDefinitionTests(unittest.TestCase):
    def test_benchmark_json_matches_the_emitted_metrics(self):
        import instrument
        import run

        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END_UNITS)
        emitted = instrument.per_layer_metrics(instrument.Instrument(), [], 1.0, 1.0)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         {k: unit for k, (_, unit) in emitted.items()})

    def test_tail_percentile_keeps_ten_samples_beyond(self):
        import run

        self.assertEqual(run.tail_percentile(148), 90)
        self.assertEqual(run.tail_percentile(40), 75)
        self.assertEqual(run.tail_percentile(17), 50)


if __name__ == "__main__":
    unittest.main()
