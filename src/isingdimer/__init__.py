"""Exact spectral-transform toolkit for Ising and dimer models on a torus."""

from .exactalg import (
    LaurentPoly2,
    LaurentMatrix,
    NewtonPolygon,
    lm_determinant,
    lm_adjugate,
    newton_polygon,
    resultant_eliminate,
)
from .torusgraph import TorusGraph, parse_torus_graph, serialize_torus_graph

__all__ = [
    "LaurentPoly2",
    "LaurentMatrix",
    "NewtonPolygon",
    "lm_determinant",
    "lm_adjugate",
    "newton_polygon",
    "resultant_eliminate",
    "TorusGraph",
    "parse_torus_graph",
    "serialize_torus_graph",
]
