"""Factor-degree profiles from sympy's galoistools.

An implementation apart from gorlink.unipoly (sympy's square-free test and
Zassenhaus distinct-degree factorization), which the tests compare the
program's profiles and Monte Carlo counts with.
"""

from sympy.polys import galoistools as gt
from sympy.polys.domains import ZZ


def degree_profile(ascending, p):
    """Sorted (degree, count) pairs of the irreducible factors of a monic
    polynomial over GF(p), or None when it is not square-free."""
    f = [c % p for c in reversed(ascending)]
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
