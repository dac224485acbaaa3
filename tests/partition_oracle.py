"""Slow reference split statistics, kept for cross-checks in the test suite.

A(n, k, q) and its limit p(n, k) as the defining sums over the partitions
of n, walked one by one:

    A(n, k, q) = sum over partitions L of n that contain a sub-multiset
                 summing to k of  prod_i  C(N(l_i, q), t_i)

where L has t_i parts equal to l_i.  C(N(l, q), t) has integer numerator
gorlink.splitstats._binomial_numerator(l, t) and denominator t! * l^t, and
prod_i t_i! * l_i^t_i = n!/|C_L| for the conjugacy class C_L of cycle type
L in the symmetric group, so each term is (integer numerator) * |C_L| / n!.
p(n, k) is the sum of |C_L|/n! over the classes reaching k.

The program computes both by a dynamic program over cycle lengths
(gorlink.splitstats); the tests compare its values with the ones here.
"""

from fractions import Fraction
from itertools import groupby
from math import factorial

from gorlink.splitstats import RationalPolynomial, _binomial_numerator, _int_conv
from gorlink.unipoly import degree_sums


def iter_partitions(n):
    """Yield the partitions of n as decreasing tuples, largest part first."""
    if n < 1:
        raise ValueError("n must be >= 1")

    def rec(remaining, cap, prefix):
        if remaining == 0:
            yield prefix
            return
        for part in range(min(cap, remaining), 0, -1):
            yield from rec(remaining - part, part, prefix + (part,))

    yield from rec(n, n, ())


def runs(parts):
    """[(part, multiplicity)] of a decreasing tuple of parts: the
    factor-degree profile of that cycle type."""
    return [(ell, len(list(group))) for ell, group in groupby(parts)]


def _classes(n, k):
    """Run form of each partition of n with a sub-multiset summing to k."""
    for parts in iter_partitions(n):
        form = runs(parts)
        if (degree_sums(form) >> k) & 1:
            yield form


def _class_size(form, n_factorial):
    """|C_L| = n!/prod(t! * l^t) for the cycle type L with runs [(l, t)]."""
    z = 1
    for ell, t in form:
        z *= factorial(t) * ell**t
    return n_factorial // z


def conjugacy_fraction(parts):
    """|C_L| / n!: relative size of the conjugacy class of cycle type parts."""
    n_factorial = factorial(sum(parts))
    return Fraction(_class_size(runs(parts), n_factorial), n_factorial)


def count_squarefree_with_factor(n, k):
    """A(n, k, q) summed over the partition classes of n."""
    n_factorial = factorial(n)
    acc = [0] * (n + 1)
    for form in _classes(n, k):
        size = _class_size(form, n_factorial)
        num = [1]
        for ell, t in form:
            num = _int_conv(num, _binomial_numerator(ell, t))
        for e, c in enumerate(num):
            acc[e] += c * size
    return RationalPolynomial({e: Fraction(c, n_factorial) for e, c in enumerate(acc)})


def limit_fraction(n, k):
    """p(n, k) summed over the partition classes of n."""
    n_factorial = factorial(n)
    return Fraction(
        sum(_class_size(form, n_factorial) for form in _classes(n, k)), n_factorial
    )
