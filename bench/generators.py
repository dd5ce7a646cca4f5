"""Seeded instance generators for the benchmark (stdlib only).

Every generator takes a `random.Random` and returns plain tuples, so the
benchmark decides the inputs and luckylab receives only what is generated.
"""

from __future__ import annotations

import random


def random_3sat(rng: random.Random, num_vars: int, num_clauses: int):
    """The acceptance-sweep shape: each literal picks a variable and a sign
    uniformly, with replacement, so clauses may repeat a variable.

    Returns (num_vars, clauses) with clauses as tuples of signed ints.
    """
    clauses = tuple(
        tuple(rng.choice((1, -1)) * rng.randint(1, num_vars) for _ in range(3))
        for _ in range(num_clauses))
    return num_vars, clauses


def planted_3sat(rng: random.Random, num_vars: int, num_clauses: int):
    """A 3-SAT formula built around a hidden satisfying assignment.

    Each clause takes three distinct variables with uniform signs and is
    redrawn until the planted assignment satisfies it, so every clause is
    uniform over the seven sign patterns that assignment satisfies.

    Returns (num_vars, clauses, assignment) with assignment {var: bool}.
    """
    if num_vars < 3:
        raise ValueError("planted 3-SAT needs at least three variables")
    assignment = {v: rng.random() < 0.5 for v in range(1, num_vars + 1)}
    clauses = []
    while len(clauses) < num_clauses:
        clause = tuple(v if rng.random() < 0.5 else -v
                       for v in rng.sample(range(1, num_vars + 1), 3))
        if any(assignment[abs(lit)] == (lit > 0) for lit in clause):
            clauses.append(clause)
    return num_vars, tuple(clauses), assignment


def gnp(rng: random.Random, n: int, p: float):
    """An Erdos-Renyi G(n, p) draw as (n, edges), edges (u, v) with u < v."""
    return n, tuple((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p)
