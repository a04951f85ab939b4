"""Exact dimensions of partial-derivative spaces of sparse rational polynomials.

The package computes, for a polynomial given as a sum of monomials:

* the exact dimension of the span of its order-k (or all-order, or
  interior-order) partial derivatives, by explicit matrices and
  fraction-free rational elimination (:mod:`pdrank.exact`);
* fast lower bounds from extremal monomials and Newton-polytope vertices,
  and linearity upper bounds (:mod:`pdrank.bounds`);
* trace-based lower bounds (the proxy rank Tr(B)^2/Tr(B^2) and a closed
  form L(f)), computable in polynomial time (:mod:`pdrank.trace`);
* exact gap series for elementary symmetric polynomials
  (:mod:`pdrank.symmetric`);
* graph -> simplicial complex -> polynomial constructions whose derivative
  dimension counts faces and independent sets (:mod:`pdrank.reductions`).

Coefficients are exact rationals throughout; all randomness is seeded.
"""

from .bounds import (
    MonomialOrderSpec,
    extremal_monomial,
    lower_bound_extremal,
    monomial_dim_profile,
    upper_bound_linearity,
    vertex_sample,
)
from .errors import InvariantViolation, ParseError, ResourceLimitError
from .exact import (
    DerivMatrix,
    build_matrix,
    derivative,
    dim_partials,
    rank_exact,
    sparse_int_rank,
)
from .polyio import (
    Graph,
    SimplicialComplex,
    SparsePoly,
    Term,
    format_complex,
    format_graph,
    format_poly,
    parse_complex,
    parse_graph,
    parse_poly,
    poly_from_json_dict,
    poly_to_json_dict,
    to_ordinary,
    to_scaled,
)
from .reductions import (
    ReductionReport,
    complex_to_poly,
    count_faces,
    count_independent_sets,
    graph_complex,
    graph_to_poly,
    partial_plus_basis,
    verify_reduction,
)
from .symmetric import (
    SymGapPoint,
    sym_exact_dim,
    sym_gap_series_fixed,
    sym_gap_series_scaled,
    sym_poly,
    sym_trace_B,
    sym_trace_B2,
)
from .trace import (
    TraceStats,
    closed_form_L,
    count_N,
    explicit_B_oracle,
    proxy_rank,
    semirandom_estimate,
    semirandom_expectation,
    trace_B,
    trace_B2,
    trace_stats,
)

__all__ = [
    "DerivMatrix",
    "Graph",
    "InvariantViolation",
    "MonomialOrderSpec",
    "ParseError",
    "ReductionReport",
    "ResourceLimitError",
    "SimplicialComplex",
    "SparsePoly",
    "SymGapPoint",
    "Term",
    "TraceStats",
    "build_matrix",
    "closed_form_L",
    "complex_to_poly",
    "count_N",
    "count_faces",
    "count_independent_sets",
    "derivative",
    "dim_partials",
    "explicit_B_oracle",
    "extremal_monomial",
    "format_complex",
    "format_graph",
    "format_poly",
    "graph_complex",
    "graph_to_poly",
    "lower_bound_extremal",
    "monomial_dim_profile",
    "parse_complex",
    "parse_graph",
    "parse_poly",
    "partial_plus_basis",
    "poly_from_json_dict",
    "poly_to_json_dict",
    "proxy_rank",
    "rank_exact",
    "semirandom_estimate",
    "semirandom_expectation",
    "sparse_int_rank",
    "sym_exact_dim",
    "sym_gap_series_fixed",
    "sym_gap_series_scaled",
    "sym_poly",
    "sym_trace_B",
    "sym_trace_B2",
    "to_ordinary",
    "to_scaled",
    "trace_B",
    "trace_B2",
    "trace_stats",
    "upper_bound_linearity",
    "verify_reduction",
    "vertex_sample",
]

__version__ = "0.1.0"
