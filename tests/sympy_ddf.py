"""Factor-degree profiles, factors and gcds from sympy's galoistools.

An implementation apart from gorlink.unipoly (sympy's square-free test,
Zassenhaus distinct-degree factorization, Cantor-Zassenhaus equal-degree
splitting and Euclid), which the tests compare the program's profiles,
factors, gcds and Monte Carlo counts with.  Polynomials are ascending
coefficient sequences, as in gorlink.unipoly.
"""

from sympy.polys import galoistools as gt
from sympy.polys.domains import ZZ


def _dense(ascending, p):
    dense = [c % p for c in reversed(ascending)]
    while dense and dense[0] == 0:
        dense.pop(0)
    return dense


def _ascending(dense):
    return tuple(int(c) for c in reversed(dense))


def is_squarefree(ascending, p):
    return bool(gt.gf_sqf_p(_dense(ascending, p), p, ZZ))


def factors(ascending, p):
    """The monic irreducible factors of a square-free monic polynomial, in
    canonical order: degree, then the ascending coefficient tuple."""
    _, found = gt.gf_factor_sqf(_dense(ascending, p), p, ZZ)
    return sorted((_ascending(g) for g in found), key=lambda g: (len(g), g))


def gcd(a, b, p):
    """Monic gcd; () when both are zero."""
    return _ascending(gt.gf_gcd(_dense(a, p), _dense(b, p), p, ZZ))


def product(polys, p):
    out = [1]
    for g in polys:
        out = gt.gf_mul(out, _dense(g, p), p, ZZ)
    return _ascending(out)


def quotient(a, b, p):
    return _ascending(gt.gf_quo(_dense(a, p), _dense(b, p), p, ZZ))


def remainder(a, b, p):
    return _ascending(gt.gf_rem(_dense(a, p), _dense(b, p), p, ZZ))


def degree_profile(ascending, p):
    """Sorted (degree, count) pairs of the irreducible factors of a monic
    polynomial over GF(p), or None when it is not square-free."""
    f = _dense(ascending, p)
    if not gt.gf_sqf_p(f, p, ZZ):
        return None
    counts = {}
    for g, d in gt.gf_ddf_zassenhaus(f, p, ZZ):
        counts[d] = counts.get(d, 0) + (len(g) - 1) // d
    return sorted(counts.items())


def splits(ascending, p, k):
    """Square-free with a factor of degree k."""
    profile = degree_profile(ascending, p)
    if profile is None:
        return False
    sums = 1
    for d, count in profile:
        for _ in range(count):
            sums |= sums << d
    return bool(sums >> k & 1)
