"""Homogeneous polynomials in x0..x3 over GF(p), graded reverse lex order.

A monomial is an exponent 4-tuple; a polynomial is a dict mapping
monomials to nonzero residues in [1, p).  Grevlex compares total degree
first, then declares the monomial whose exponent vector has the smaller
entries late (reading x3, x2, x1) to be the larger one; x0 > x1 > x2 > x3.

The canonical text form (terms in descending grevlex order, coefficients
as integers in [0, p), '*' products and '^' powers) is used bit-exactly
in certificate files, so the renderer and parser here are strict.
"""

import numpy as np

from ._frozen import Frozen

__all__ = [
    "NVARS",
    "grevlex_key",
    "monomials_of_degree",
    "monomial_count",
    "monomial_position",
    "product_positions",
    "MultiPoly",
]

NVARS = 4

_VARNAMES = ["x0", "x1", "x2", "x3"]


def grevlex_key(m):
    """Sort key: max() under this key is the grevlex-leading monomial."""
    return (m[0] + m[1] + m[2] + m[3], -m[3], -m[2], -m[1])


def monomial_mul(a, b):
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])


def monomial_degree(m):
    return m[0] + m[1] + m[2] + m[3]


_monomial_cache = {}


def monomials_of_degree(t):
    """All degree-t monomials in descending grevlex order (cached tuple)."""
    if t < 0:
        return ()
    if t not in _monomial_cache:
        ms = []
        for e0 in range(t, -1, -1):
            for e1 in range(t - e0, -1, -1):
                for e2 in range(t - e0 - e1, -1, -1):
                    ms.append((e0, e1, e2, t - e0 - e1 - e2))
        ms.sort(key=grevlex_key, reverse=True)
        _monomial_cache[t] = tuple(ms)
    return _monomial_cache[t]


def monomial_count(t):
    return (t + 1) * (t + 2) * (t + 3) // 6 if t >= 0 else 0


def monomial_position(m):
    """Position of the monomial m in monomials_of_degree(its degree).

    Descending grevlex lists the monomials of degree t by ascending x3
    exponent, then x2, then x1: C(t+3, 3) - C(s+3, 3) of them have a
    smaller x3 exponent (s = t - m[3]), and C(s+2, 2) - C(s-m[2]+2, 2)
    of those left a smaller x2 exponent.
    """
    t = m[0] + m[1] + m[2] + m[3]
    s = t - m[3]
    return monomial_count(t) - monomial_count(s) + _pairs(s) - _pairs(s - m[2]) + m[1]


def _pairs(s):
    """Number of monomials of degree s in three variables."""
    return (s + 1) * (s + 2) // 2


_index_cache = {}


def _position_index(t):
    """{monomial: its position in monomials_of_degree(t)} (cached dict)."""
    if t not in _index_cache:
        _index_cache[t] = {m: i for i, m in enumerate(monomials_of_degree(t))}
    return _index_cache[t]


_product_cache = {}


def product_positions(a, b):
    """Positions of the products of degree-a and degree-b monomials.

    A read-only integer array P of shape (monomial_count(a),
    monomial_count(b)): P[i, j] is the position of the product of
    monomials_of_degree(a)[i] and monomials_of_degree(b)[j] in
    monomials_of_degree(a + b).  Cached per (a, b).
    """
    key = (a, b)
    if key not in _product_cache:
        right = monomials_of_degree(b)
        table = np.array(
            [[monomial_position(monomial_mul(x, y)) for y in right]
             for x in monomials_of_degree(a)],
            dtype=np.intp,
        ).reshape(monomial_count(a), len(right))
        table.flags.writeable = False
        _product_cache[key] = table
    return _product_cache[key]


class MultiPoly(Frozen):
    """Polynomial in x0..x3 over GF(p); terms is a monomial -> coeff dict."""

    __slots__ = ("terms", "p", "degree")

    def __init__(self, terms, p):
        clean = {}
        for m, c in terms.items():
            c = int(c) % p
            if c:
                clean[tuple(m)] = c
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "p", p)
        # total degree, -1 for the zero polynomial
        object.__setattr__(self, "degree", max(map(monomial_degree, clean), default=-1))

    def columns(self):
        """(positions, coefficients) of the terms of a homogeneous polynomial:
        two int arrays in the order of terms, each monomial's position in
        monomials_of_degree(self.degree) and its coefficient."""
        index = _position_index(self.degree)
        positions = np.fromiter(map(index.__getitem__, self.terms), np.intp, len(self.terms))
        return positions, np.fromiter(self.terms.values(), np.int64, len(self.terms))

    @classmethod
    def zero(cls, p):
        return cls({}, p)

    @classmethod
    def constant(cls, c, p):
        return cls({(0, 0, 0, 0): c}, p)

    @classmethod
    def variable(cls, i, p):
        e = [0, 0, 0, 0]
        e[i] = 1
        return cls({tuple(e): 1}, p)

    @classmethod
    def linear_form(cls, coeffs, p):
        """c0*x0 + c1*x1 + c2*x2 + c3*x3."""
        terms = {}
        for i, c in enumerate(coeffs):
            e = [0, 0, 0, 0]
            e[i] = 1
            terms[tuple(e)] = c
        return cls(terms, p)

    def is_zero(self):
        return not self.terms

    def is_homogeneous(self):
        degs = {monomial_degree(m) for m in self.terms}
        return len(degs) <= 1

    def leading_monomial(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=grevlex_key)

    def leading_coefficient(self):
        return self.terms[self.leading_monomial()]

    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and self.p == other.p
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((frozenset(self.terms.items()), self.p))

    # canonical text format -------------------------------------------------

    def render(self):
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=grevlex_key, reverse=True):
            c = self.terms[m]
            factors = []
            if c != 1 or monomial_degree(m) == 0:
                factors.append(str(c))
            for i in range(NVARS):
                if m[i] == 1:
                    factors.append(_VARNAMES[i])
                elif m[i] > 1:
                    factors.append("%s^%d" % (_VARNAMES[i], m[i]))
            parts.append("*".join(factors))
        return " + ".join(parts)

    @classmethod
    def parse(cls, text, p):
        text = text.strip()
        if text == "0":
            return cls.zero(p)
        terms = {}
        for chunk in text.split(" + "):
            coeff = 1
            expo = [0, 0, 0, 0]
            seen_coeff = False
            for factor in chunk.split("*"):
                factor = factor.strip()
                if "^" in factor:
                    name, _, power = factor.partition("^")
                    expo[_VARNAMES.index(name)] += int(power)
                elif factor in _VARNAMES:
                    expo[_VARNAMES.index(factor)] += 1
                else:
                    if seen_coeff:
                        raise ValueError("malformed term %r" % chunk)
                    coeff = int(factor)
                    seen_coeff = True
            m = tuple(expo)
            terms[m] = (terms.get(m, 0) + coeff) % p
        return cls(terms, p)

    def __repr__(self):
        return "MultiPoly(%s mod %d)" % (self.render(), self.p)
