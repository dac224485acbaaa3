"""How often does a random polynomial over GF(q) split off a degree-k factor?

Everything here is exact.  The central quantity is the number of
square-free monic polynomials of degree n over GF(q) admitting a factor
of degree k:

    A(n, k, q) = sum over partitions L of n that contain a sub-multiset
                 summing to k of  prod_i  C(N(L_i, q), t_i)

where N(l, q) = (1/l) sum_{d | l} mu(l/d) q^d counts monic irreducibles
of degree l (Gauss) and t_i is the multiplicity of the part L_i.  The
binomial of a polynomial argument is expanded exactly, so A(n, k, q) is
a polynomial in q with rational coefficients.  As q grows, the
contribution of a partition tends to 1 / prod(t_i! * L_i^t_i), the
relative size of the corresponding conjugacy class in the symmetric
group, giving the q -> infinity limit p(n, k).

A seeded Monte Carlo harness measures the same fraction empirically; each
trial reads the factor degrees of its draw from the distinct-degree
factorization in gorlink.unipoly.
"""

from fractions import Fraction
from math import factorial

from ._frozen import Frozen
from .gf import check_modulus
from .rng import SplitStream
from . import unipoly

__all__ = [
    "Partition",
    "RationalPolynomial",
    "count_irreducible",
    "enumerate_partitions",
    "iter_partitions",
    "has_subpartition_of_size",
    "count_squarefree_with_factor",
    "conjugacy_fraction",
    "limit_fraction",
    "montecarlo_split_fraction",
    "splits_with_degree_factor",
]

PARTITION_CAP = 60
EXACT_CAP = 40


class Partition(Frozen):
    """A partition of n: weakly decreasing positive parts."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        parts = tuple(int(x) for x in parts)
        if any(x <= 0 for x in parts):
            raise ValueError("parts must be positive")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("parts must be weakly decreasing")
        object.__setattr__(self, "parts", parts)

    @property
    def n(self):
        return sum(self.parts)

    def multiplicity_form(self):
        """[(part, multiplicity)] with parts decreasing."""
        out = []
        for x in self.parts:
            if out and out[-1][0] == x:
                out[-1][1] += 1
            else:
                out.append([x, 1])
        return [(a, b) for a, b in out]

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return "Partition%r" % (self.parts,)


def iter_partitions(n):
    """Yield the partitions of n as decreasing tuples, largest part first."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > PARTITION_CAP:
        raise ValueError("partition enumeration capped at n = %d" % PARTITION_CAP)

    def rec(remaining, cap, prefix):
        if remaining == 0:
            yield prefix
            return
        for part in range(min(cap, remaining), 0, -1):
            yield from rec(remaining - part, part, prefix + (part,))

    yield from rec(n, n, ())


def enumerate_partitions(n):
    """All partitions of n, each once, in canonical (reverse-lex) order."""
    return [Partition(t) for t in iter_partitions(n)]


def has_subpartition_of_size(partition, k):
    """True iff some sub-multiset of the parts sums to k (subset-sum)."""
    parts = partition.parts if isinstance(partition, Partition) else tuple(partition)
    total = sum(parts)
    if k < 0 or k > total:
        raise ValueError("k must satisfy 0 <= k <= sum(parts)")
    return _subset_sum_hits(parts, k)


def _subset_sum_hits(parts, k):
    mask = 1
    for x in parts:
        mask |= mask << x
        if (mask >> k) & 1:
            return True
    return (mask >> k) & 1 == 1


# ---------------------------------------------------------------------------
# exact polynomials in q


class RationalPolynomial(Frozen):
    """Polynomial in q with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        d = {}
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        for e, c in items:
            c = Fraction(c)
            if c:
                d[int(e)] = d.get(int(e), Fraction(0)) + c
        object.__setattr__(
            self, "coeffs", {e: c for e, c in d.items() if c}
        )

    @classmethod
    def constant(cls, c):
        return cls({0: Fraction(c)})

    @classmethod
    def q_power(cls, e, c=1):
        return cls({e: Fraction(c)})

    def degree(self):
        return max(self.coeffs) if self.coeffs else -1

    def coefficient(self, e):
        return self.coeffs.get(e, Fraction(0))

    def leading_coefficient(self):
        return self.coeffs[self.degree()] if self.coeffs else Fraction(0)

    def __add__(self, other):
        d = dict(self.coeffs)
        for e, c in other.coeffs.items():
            d[e] = d.get(e, Fraction(0)) + c
        return RationalPolynomial(d)

    def __sub__(self, other):
        d = dict(self.coeffs)
        for e, c in other.coeffs.items():
            d[e] = d.get(e, Fraction(0)) - c
        return RationalPolynomial(d)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalPolynomial(
                {e: c * other for e, c in self.coeffs.items()}
            )
        d = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                d[e1 + e2] = d.get(e1 + e2, Fraction(0)) + c1 * c2
        return RationalPolynomial(d)

    __rmul__ = __mul__

    def evaluate(self, q):
        q = Fraction(q)
        return sum((c * q**e for e, c in self.coeffs.items()), Fraction(0))

    def __eq__(self, other):
        return isinstance(other, RationalPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(sorted(self.coeffs.items())))

    def format(self, var="q"):
        """Canonical text: terms by descending exponent, 'num/den' coefficients."""
        if not self.coeffs:
            return "0"
        pieces = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            sign = "-" if c < 0 else "+"
            mag = -c if c < 0 else c
            coef = str(mag.numerator)
            if mag.denominator != 1:
                coef += "/%d" % mag.denominator
            if e == 0:
                term = coef
            else:
                head = var if e == 1 else "%s^%d" % (var, e)
                term = head if mag == 1 else "%s %s" % (coef, head)
            pieces.append((sign, term))
        first_sign, first_term = pieces[0]
        out = ("-" if first_sign == "-" else "") + first_term
        for sign, term in pieces[1:]:
            out += " %s %s" % (sign, term)
        return out

    def __repr__(self):
        return "RationalPolynomial(%s)" % self.format()


def _mobius(n):
    if n == 1:
        return 1
    m, result = n, 1
    f = 2
    while f * f <= m:
        if m % f == 0:
            m //= f
            if m % f == 0:
                return 0
            result = -result
        f += 1
    if m > 1:
        result = -result
    return result


def count_irreducible(ell):
    """N(ell, q): monic irreducibles of degree ell over GF(q), as a polynomial."""
    if ell < 1:
        raise ValueError("degree must be >= 1")
    coeffs = {}
    for d in range(1, ell + 1):
        if ell % d == 0:
            mu = _mobius(ell // d)
            if mu:
                coeffs[d] = coeffs.get(d, Fraction(0)) + Fraction(mu, ell)
    return RationalPolynomial(coeffs)


# integer-coefficient convolution helpers: products of binomial numerators are
# done in int arithmetic and only scaled to Fractions once per partition


def _int_conv(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _scaled_irreducible_coeffs(ell):
    # ell * N(ell, q) as integer coefficients, ascending in q
    out = [0] * (ell + 1)
    for d in range(1, ell + 1):
        if ell % d == 0:
            out[d] += _mobius(ell // d)
    return out


_binomial_cache = {}


def _binomial_numerator(ell, t):
    """Integer-coefficient numerator of C(N(ell,q), t); denominator t! * ell^t."""
    key = (ell, t)
    if key not in _binomial_cache:
        base = _scaled_irreducible_coeffs(ell)
        prod = [1]
        for i in range(t):
            shifted = list(base)
            shifted[0] -= i * ell
            prod = _int_conv(prod, shifted)
        _binomial_cache[key] = prod
    return _binomial_cache[key]


def count_squarefree_with_factor(n, k):
    """A(n, k, q): square-free monic degree-n polynomials with a degree-k factor."""
    if not (0 <= k <= n):
        raise ValueError("need 0 <= k <= n")
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > EXACT_CAP:
        raise ValueError("exact evaluation capped at n = %d" % EXACT_CAP)
    acc = [Fraction(0)] * (n + 1)
    for parts in iter_partitions(n):
        if not _subset_sum_hits(parts, k):
            continue
        num = [1]
        den = 1
        i = 0
        while i < len(parts):
            j = i
            while j < len(parts) and parts[j] == parts[i]:
                j += 1
            ell, t = parts[i], j - i
            num = _int_conv(num, _binomial_numerator(ell, t))
            den *= factorial(t) * ell**t
            i = j
        for e, c in enumerate(num):
            if c:
                acc[e] += Fraction(c, den)
    return RationalPolynomial({e: c for e, c in enumerate(acc) if c})


def conjugacy_fraction(partition):
    """|C_lambda| / n!: relative size of the conjugacy class with this cycle type."""
    parts = partition.parts if isinstance(partition, Partition) else tuple(partition)
    den = 1
    i = 0
    while i < len(parts):
        j = i
        while j < len(parts) and parts[j] == parts[i]:
            j += 1
        den *= factorial(j - i) * parts[i] ** (j - i)
        i = j
    return Fraction(1, den)


def limit_fraction(n, k):
    """p(n, k) = lim_{q->inf} A(n, k, q) / q^n, an exact rational in [0, 1]."""
    if not (0 <= k <= n):
        raise ValueError("need 0 <= k <= n")
    if n > PARTITION_CAP:
        raise ValueError("capped at n = %d" % PARTITION_CAP)
    total = Fraction(0)
    for parts in iter_partitions(n):
        if _subset_sum_hits(parts, k):
            total += conjugacy_fraction(parts)
    return total


# ---------------------------------------------------------------------------
# Monte Carlo


def splits_with_degree_factor(f, k):
    """True iff monic f is square-free and has a factor of degree k."""
    if not unipoly.is_squarefree(f):
        return False
    if k == 0 or k == f.degree:
        return True
    degrees = []
    for prod, d in unipoly._distinct_degree(list(f.coeffs), f.p):
        degrees.extend([d] * ((len(prod) - 1) // d))
    return _subset_sum_hits(tuple(degrees), k)


def montecarlo_split_fraction(n, k, q, trials, seed, workers=None):
    """Count random monic degree-n polys over GF(q) that split off degree k.

    Returns (successes, Fraction(successes, trials)).  Each trial draws its
    polynomial from a child stream of the seed indexed by trial number, so
    the result does not depend on how trials are scheduled.
    """
    check_modulus(q)
    if not (0 <= k <= n):
        raise ValueError("need 0 <= k <= n")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if n == 1:
        # a monic linear polynomial is square-free and is its own factor
        return trials, Fraction(1)
    if workers and workers > 1:
        successes = _montecarlo_parallel(n, k, q, trials, seed, workers)
    else:
        successes = _montecarlo_chunk(n, k, q, seed, 0, trials)
    return successes, Fraction(successes, trials)


def _montecarlo_chunk(n, k, q, seed, lo, hi):
    """Successes among trials lo..hi-1 of one Monte Carlo run."""
    root = SplitStream(seed).child("montecarlo", n, k, q)
    return sum(
        splits_with_degree_factor(unipoly.random_monic(n, q, root.child(i)), k)
        for i in range(lo, hi)
    )


def _montecarlo_parallel(n, k, q, trials, seed, workers):
    from concurrent.futures import ProcessPoolExecutor

    chunk = (trials + workers - 1) // workers
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(_montecarlo_chunk, n, k, q, seed, lo, min(lo + chunk, trials))
            for lo in range(0, trials, chunk)
        ]
        return sum(f.result() for f in futures)
