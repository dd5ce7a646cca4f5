"""Builders for every named graph family, gadget and reduction in the workbench."""

from .families import clique_eta_one, counterexample_graph
from .gadgets import (
    BoundaryCase,
    CertificationReport,
    GadgetBuilder,
    GadgetContract,
    GadgetInstance,
    build_amplifier_gadget,
    build_clause_gadget,
    build_forcing_gadget,
    build_index_gadget,
    build_variable_gadget,
    build_vertex_gadget,
    certify_gadget,
    corrupted_variable_gadget,
    gadget_certification_suite,
)
from .reductions import (
    ReductionOutput,
    build_inapprox_reduction,
    build_listcoloring_reduction,
    build_sat_reduction,
    normalize_lists,
)

__all__ = [
    "BoundaryCase",
    "CertificationReport",
    "GadgetBuilder",
    "GadgetContract",
    "GadgetInstance",
    "ReductionOutput",
    "build_amplifier_gadget",
    "build_clause_gadget",
    "build_forcing_gadget",
    "build_index_gadget",
    "build_inapprox_reduction",
    "build_listcoloring_reduction",
    "build_sat_reduction",
    "build_variable_gadget",
    "build_vertex_gadget",
    "certify_gadget",
    "clique_eta_one",
    "corrupted_variable_gadget",
    "counterexample_graph",
    "gadget_certification_suite",
    "normalize_lists",
]
