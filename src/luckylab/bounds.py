"""Closed-form bounds as checkable predicates, cross-validated against the exact solvers."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

from .graph import BudgetExceeded, Graph, chromatic_number, max_clique, regularity
from .solver import SearchBudget, solve_eta, solve_eta1, solve_sigma


def clique_ratio_bound(g: Graph) -> int:
    """ceil(omega / (n - omega + 1)), a lower bound on the additive number."""
    return _clique_ratio(g, max_clique(g)[0])


def regular_bound(g: Graph) -> Optional[int]:
    """3 when the graph is regular with omega > (n+4)/3, else None."""
    if regularity(g) is None:
        return None  # before the exponential clique search
    return _regular(g, max_clique(g)[0])


def _clique_ratio(g: Graph, omega: int) -> int:
    return math.ceil(omega / (g.n - omega + 1))


def _regular(g: Graph, omega: int) -> Optional[int]:
    if regularity(g) is not None and 3 * omega > g.n + 4:
        return 3
    return None


@dataclass
class BoundsReport:
    """Everything computable within budget plus one flag per inequality.

    A flag is present iff both of its sides were computed; True means the
    inequality holds on this instance.  The additive-vs-chromatic comparison
    is a conjecture and is only ever reported, never assumed.
    """

    n: int
    omega: Optional[int] = None
    chi: Optional[int] = None
    clique_ratio: Optional[int] = None
    regular: Optional[int] = None
    eta: Optional[int] = None
    eta1: Optional[int] = None
    eta1_infeasible: bool = False
    sigma: Optional[int] = None
    flags: dict[str, bool] = field(default_factory=dict)
    notes: dict[str, str] = field(default_factory=dict)

    def all_flags_hold(self) -> bool:
        return all(self.flags.values())

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "omega": self.omega,
            "chi": self.chi,
            "clique_ratio_bound": self.clique_ratio,
            "regular_bound": self.regular,
            "eta": self.eta,
            "eta1": self.eta1,
            "eta1_infeasible": self.eta1_infeasible,
            "sigma": self.sigma,
            "flags": self.flags,
            "notes": self.notes,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


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
        rep.clique_ratio = _clique_ratio(g, rep.omega)
        rep.regular = _regular(g, rep.omega)
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
        if rep.clique_ratio is not None:
            rep.flags["eta_ge_clique_ratio"] = rep.eta >= rep.clique_ratio
        if rep.regular is not None:
            rep.flags["eta_ge_regular_bound"] = rep.eta >= rep.regular
        if chi is not None:
            rep.flags["eta_le_chi_conjecture"] = rep.eta <= chi
    if chi is not None:
        if rep.eta1 is not None:
            rep.flags["eta1_ge_chi_minus_1"] = rep.eta1 >= chi - 1
        if rep.sigma is not None:
            rep.flags["sigma_le_chi"] = rep.sigma <= chi
    return rep
