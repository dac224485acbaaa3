"""Gorenstein linkage workbench for point schemes in P^3 over prime fields.

Subpackages cover exact GF(p) linear algebra, univariate factorization,
split-polynomial statistics, homogeneous ideals in four variables held as
degreewise echelonized graded pieces, Gorenstein h-vector classification,
random arithmetically Gorenstein constructions, tangent-space dominance
tests, and the bi-dominant linkage graph.
"""

__version__ = "0.1.0"
