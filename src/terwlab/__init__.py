"""Terwilliger-algebra analysis of symmetric association schemes.

The pipeline: validate a scheme, detect its P- and Q-polynomial
orderings and spectral data, fix a base vertex to get the raising/flat/
lowering operators, decompose the standard module into irreducible
invariant subspaces, and compare the measured module parameters and
multiplicities against their closed forms.
"""

from .context import IdentityReport, TerwContext, build_context, verify_operator_identities
from .decomposer import IrreducibleModule, ModuleTable, census, decompose
from .generators import folded_cube, load_scheme, odd_cycle, odd_graph, save_scheme, scheme_from_graph
from .multiplicity import MultiplicityTable, solve_multiplicities, trace_ladders
from .predictor import feasibility, upsilon_cells
from .qs import ExclusionReport, QSParams, exclusion_check, fit_qs, qs_band_grid, qs_multiplicity
from .scheme import AssociationScheme, IntersectionTensor, validate_scheme
from .spectral import PPolyArray, SpectralData, intersection_array, is_almost_bipartite, krein_products, spectral_data

__version__ = "0.1.0"

__all__ = [
    "AssociationScheme",
    "ExclusionReport",
    "IdentityReport",
    "IntersectionTensor",
    "IrreducibleModule",
    "ModuleTable",
    "MultiplicityTable",
    "PPolyArray",
    "QSParams",
    "SpectralData",
    "TerwContext",
    "build_context",
    "census",
    "decompose",
    "exclusion_check",
    "feasibility",
    "fit_qs",
    "folded_cube",
    "intersection_array",
    "is_almost_bipartite",
    "krein_products",
    "load_scheme",
    "odd_cycle",
    "odd_graph",
    "qs_band_grid",
    "qs_multiplicity",
    "save_scheme",
    "scheme_from_graph",
    "solve_multiplicities",
    "spectral_data",
    "trace_ladders",
    "upsilon_cells",
    "validate_scheme",
    "verify_operator_identities",
]
