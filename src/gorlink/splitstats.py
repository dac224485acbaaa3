"""How often does a random polynomial over GF(q) split off a degree-k factor?

Everything here is exact.  The central quantity is the number of
square-free monic polynomials of degree n over GF(q) admitting a factor
of degree k:

    A(n, k, q) = sum over partitions L of n that contain a sub-multiset
                 summing to k of  prod_i  C(N(l_i, q), t_i)

where N(l, q) = (1/l) sum_{d | l} mu(l/d) q^d counts monic irreducibles
of degree l (Gauss) and L has t_i parts equal to l_i.  Written in runs
[(l_i, t_i)], a partition is a factor-degree profile, and a profile is a
cycle type (S. D. Cohen, Acta Arith. 17, 1970).

The binomial C(N(l, q), t) is a polynomial in q with integer numerator
and denominator t! * l^t.  _cycle_sum does not walk the partitions: it
builds them one cycle length at a time, l = n, ..., 1, which is the
exponential formula for the cycle index (Flajolet-Sedgewick, Analytic
Combinatorics, 2009, ch. II) with a subset-sum mask as extra state.  The
state is the degree m still to fill and the mask of the sums that the
parts taken so far reach, built by the step of unipoly.degree_sums and
cut to the bits in [k - m, k], the only ones that can still end at k.
Adding t parts of length l to parts of total s = n - m multiplies by
(s + t*l)! / (s! * t! * l^t), the number of ways to lay t new l-cycles
over s + t*l points, an integer.  Along a partition these factors
multiply to n!/prod(t_i! * l_i^t_i) = |C_L|, the size of the conjugacy
class of cycle type L in the symmetric group, so A(n, k, q) is summed in
integers and divided by n! once.

Each numerator is monic of degree l*t, so a class contributes |C_L|/n! to
the leading coefficient of A(n, k, q), and every term has degree n.  The
q -> infinity limit p(n, k) = lim A(n, k, q)/q^n is therefore the same
program with each numerator replaced by its leading coefficient [1]: the
sum of |C_L|/n! over the classes reaching k.

A seeded Monte Carlo harness measures the same fraction empirically.
Each trial draws its polynomial from its own child stream, one trial at a
time; the factor-degree profiles of the draws are then read in blocks of
_MC_BLOCK trials by unipoly.factor_degree_profiles, one stacked
computation per block, so how trials are grouped, or spread over
workers, never changes a count.
"""

from fractions import Fraction
from math import comb, factorial

from ._frozen import Frozen
from ._workers import worker_count, worker_pool
from .gf import check_modulus
from .rng import SplitStream
from . import unipoly

__all__ = [
    "RationalPolynomial",
    "count_irreducible",
    "count_squarefree_with_factor",
    "limit_fraction",
    "montecarlo_split_fraction",
]

# A(n, k, q) stays a polynomial in q, under a second at n = 40; p(n, k)
# reaches the largest candidate degree.
EXACT_CAP = 40
LIMIT_CAP = 96
# Monte Carlo trials whose profiles are read in one stacked computation; a
# larger block is hardly faster and holds more memory at once.
_MC_BLOCK = 32


# ---------------------------------------------------------------------------
# exact polynomials in q


class RationalPolynomial(Frozen):
    """Polynomial in q with exact rational coefficients, from {exponent: c}."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        object.__setattr__(
            self, "coeffs", {int(e): Fraction(c) for e, c in coeffs.items() if c}
        )

    def degree(self):
        return max(self.coeffs) if self.coeffs else -1

    def evaluate(self, q):
        q = Fraction(q)
        return sum((c * q**e for e, c in self.coeffs.items()), Fraction(0))

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


def _scaled_irreducible_coeffs(ell):
    # ell * N(ell, q) as integer coefficients, ascending in q
    out = [0] * (ell + 1)
    for d in range(1, ell + 1):
        if ell % d == 0:
            out[d] += _mobius(ell // d)
    return out


def count_irreducible(ell):
    """N(ell, q): monic irreducibles of degree ell over GF(q), as a polynomial."""
    if ell < 1:
        raise ValueError("degree must be >= 1")
    return RationalPolynomial(
        {e: Fraction(c, ell) for e, c in enumerate(_scaled_irreducible_coeffs(ell))}
    )


def _int_conv(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
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


def _cycle_sum(n, k, weight):
    """n! times the sum, over the cycle types [(l, t)] of n that reach k,
    of prod weight(l, t) / (t! * l^t), as a list of integer coefficients.

    weight(l, t) gives integer coefficients, ascending in q.
    """
    top = (1 << k + 1) - 1
    states = {(n, 1): [1]}  # (degree left, mask of reachable sums) -> sum
    for ell in range(n, 0, -1):
        nxt = {}
        for (m, mask), value in states.items():
            s = n - m
            for t in range(m // ell + 1):
                left = m - t * ell
                if t:
                    mask |= mask << ell
                if ell == 1 and left:
                    continue  # nothing shorter is left to fill the rest
                low = max(k - left, 0)  # the parts still to come add left
                reach = (mask & top) >> low << low
                if reach >> k:
                    reach = 1 << k
                if not reach:
                    continue
                size = comb(s + t * ell, s) * factorial(t * ell) // (factorial(t) * ell**t)
                w = weight(ell, t)
                term = value if w == [1] else _int_conv(value, w)
                acc = nxt.setdefault((left, reach), [0] * len(term))
                for e, c in enumerate(term):
                    acc[e] += c * size
        states = nxt
    return states[(0, 1 << k)]


def count_squarefree_with_factor(n, k):
    """A(n, k, q): square-free monic degree-n polynomials with a degree-k factor."""
    if not (0 <= k <= n):
        raise ValueError("need 0 <= k <= n")
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > EXACT_CAP:
        raise ValueError("exact evaluation capped at n = %d" % EXACT_CAP)
    n_factorial = factorial(n)
    acc = _cycle_sum(n, k, _binomial_numerator)
    return RationalPolynomial({e: Fraction(c, n_factorial) for e, c in enumerate(acc)})


def limit_fraction(n, k):
    """p(n, k) = lim_{q->inf} A(n, k, q) / q^n, an exact rational in [0, 1]."""
    if not (0 <= k <= n):
        raise ValueError("need 0 <= k <= n")
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > LIMIT_CAP:
        raise ValueError("capped at n = %d" % LIMIT_CAP)
    (total,) = _cycle_sum(n, k, lambda ell, t: [1])
    return Fraction(total, factorial(n))


# ---------------------------------------------------------------------------
# Monte Carlo


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
    if n <= 1:
        # a monic polynomial of degree <= 1 is square-free and its own factor
        return trials, Fraction(1)
    if workers and workers > 1:
        successes = _montecarlo_parallel(n, k, q, trials, seed, workers)
    else:
        successes = _montecarlo_chunk(n, k, q, seed, 0, trials)
    return successes, Fraction(successes, trials)


def _montecarlo_chunk(n, k, q, seed, lo, hi):
    """Successes among trials lo..hi-1 of one Monte Carlo run.

    The draws are made one trial at a time, as their streams require; their
    profiles are read in blocks of _MC_BLOCK by one stacked computation.
    """
    root = SplitStream(seed).child("montecarlo", n, k, q)
    successes = 0
    for start in range(lo, hi, _MC_BLOCK):
        block = [
            unipoly.random_monic(n, q, root.child(i))
            for i in range(start, min(start + _MC_BLOCK, hi))
        ]
        successes += sum(
            profile is not None and (unipoly.degree_sums(profile) >> k) & 1
            for profile in unipoly.factor_degree_profiles(block)
        )
    return successes


def _montecarlo_parallel(n, k, q, trials, seed, workers):
    workers = worker_count(workers)
    chunk = (trials + workers - 1) // workers
    with worker_pool(workers) as pool:
        futures = [
            pool.submit(_montecarlo_chunk, n, k, q, seed, lo, min(lo + chunk, trials))
            for lo in range(0, trials, chunk)
        ]
        return sum(f.result() for f in futures)
