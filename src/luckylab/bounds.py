"""Closed-form bounds as checkable predicates, cross-validated against the exact solvers."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Optional

from .graph import BudgetExceeded, Graph, chromatic_number, max_clique, regularity
from .solver import SearchBudget, solve_eta, solve_eta1, solve_sigma


def clique_ratio_bound(g: Graph, omega: int) -> int:
    """ceil(omega / (n - omega + 1)), a lower bound on the additive number."""
    return math.ceil(omega / (g.n - omega + 1))


def regular_bound(g: Graph, omega: int) -> Optional[int]:
    """3 when the graph is regular with omega > (n+4)/3, else None."""
    if regularity(g) is not None and 3 * omega > g.n + 4:
        return 3
    return None


@dataclass
class BoundsReport:
    """Everything computable within budget plus one flag per inequality.

    A flag is present iff both of its sides were computed; True means the
    inequality holds on this instance.  The additive-vs-chromatic comparison
    (eta_le_chi_conjecture) is a conjecture, yet all_flags_hold() and the
    exit status of `luckylab bounds` count it like the theorem flags; a
    graph with eta > chi would read as a failed bound (an open ROADMAP item,
    "The conjecture flag and small boundaries").
    """

    n: int
    omega: Optional[int] = None
    chi: Optional[int] = None
    clique_ratio_bound: Optional[int] = None
    regular_bound: Optional[int] = None
    eta: Optional[int] = None
    eta1: Optional[int] = None
    eta1_infeasible: bool = False
    sigma: Optional[int] = None
    flags: dict[str, bool] = field(default_factory=dict)
    notes: dict[str, str] = field(default_factory=dict)

    def all_flags_hold(self) -> bool:
        return all(self.flags.values())

    def to_json_dict(self) -> dict:
        return asdict(self)


def bounds_report(g: Graph, budget: Optional[SearchBudget] = None) -> BoundsReport:
    """Compute the exact values within budget and evaluate every inequality flag.

    Every search, the clique and colouring searches among them, gets the
    whole budget.  Fields whose search exhausts it stay absent and their
    flags are skipped (recorded in notes) rather than guessed.
    """
    budget = budget or SearchBudget()
    rep = BoundsReport(n=g.n)
    try:
        rep.omega = max_clique(g, budget)[0]
        rep.clique_ratio_bound = clique_ratio_bound(g, rep.omega)
        rep.regular_bound = regular_bound(g, rep.omega)
    except BudgetExceeded:
        rep.notes["omega"] = "budget-exceeded"
    try:
        rep.chi = chromatic_number(g, budget)[0]
    except BudgetExceeded:
        rep.notes["chi"] = "budget-exceeded"

    r_eta = solve_eta(g, budget)
    if r_eta.status == "found":
        rep.eta = r_eta.value
    else:
        rep.notes["eta"] = r_eta.status

    r_eta1 = solve_eta1(g, budget)
    if r_eta1.status == "found":
        rep.eta1 = r_eta1.value
    elif r_eta1.status == "infeasible":
        rep.eta1_infeasible = True
    else:
        rep.notes["eta1"] = r_eta1.status

    r_sigma = solve_sigma(g, budget)
    if r_sigma.status == "found":
        rep.sigma = r_sigma.value
    else:
        rep.notes["sigma"] = r_sigma.status

    chi = rep.chi
    if rep.eta is not None:
        if rep.clique_ratio_bound is not None:
            rep.flags["eta_ge_clique_ratio"] = rep.eta >= rep.clique_ratio_bound
        if rep.regular_bound is not None:
            rep.flags["eta_ge_regular_bound"] = rep.eta >= rep.regular_bound
        if chi is not None:
            rep.flags["eta_le_chi_conjecture"] = rep.eta <= chi
    if chi is not None:
        if rep.eta1 is not None:
            rep.flags["eta1_ge_chi_minus_1"] = rep.eta1 >= chi - 1
        if rep.sigma is not None:
            rep.flags["sigma_le_chi"] = rep.sigma <= chi
    return rep
