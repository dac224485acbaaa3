"""Homogeneous forms in x0..x3 over GF(p), graded reverse lex order.

A monomial is an exponent 4-tuple.  Grevlex compares total degree first,
then declares the monomial whose exponent vector has the smaller entries
late (reading x3, x2, x1) to be the larger one; x0 > x1 > x2 > x3.

A form of degree t is its vector of residues over monomials_of_degree(t),
which lists the degree-t monomials in descending grevlex order: one row of
a Macaulay matrix, as every later stage reads it.  Every polynomial the
search makes is such a form, from the matrix entries through the
Pfaffians to the ideal generators.  The zero form has degree -1 and an
empty vector.

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


# degree -> {monomial: its position}, for the monomials from_terms has placed
_positions_seen = {}


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
    """A homogeneous form in x0..x3 over GF(p): (degree, coeffs, p).

    coeffs is a read-only int64 vector of residues in [0, p), one per
    monomial of monomials_of_degree(degree).  The zero form has degree -1
    and an empty vector, so a form of degree t >= 0 has a nonzero term.
    """

    __slots__ = ("degree", "coeffs", "p")

    def __init__(self, degree, coeffs, p):
        coeffs = np.asarray(coeffs, dtype=np.int64) % p
        if coeffs.shape != (monomial_count(degree),):
            raise ValueError(
                "a form of degree %d has %d coefficients" % (degree, monomial_count(degree))
            )
        self._hold(degree, coeffs, p)

    def _hold(self, degree, coeffs, p):
        """Set the fields, keeping coeffs, a new vector of residues of the
        right length that nothing else refers to."""
        if not coeffs.any():
            degree, coeffs = -1, np.zeros(0, dtype=np.int64)
        coeffs.flags.writeable = False
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "p", p)

    @classmethod
    def from_terms(cls, terms, p):
        """The form with the terms of a {monomial: coefficient} dict.

        Raises ValueError when the nonzero terms have more than one degree
        or a monomial is not four nonnegative exponents.  Each term's
        position is one dict lookup among the monomials of its degree seen
        before; a monomial not seen yet is checked and placed by
        monomial_position once.  The terms then go into the one vector the
        form keeps, in one step.
        """
        items = [(m, int(c) % p) for m, c in terms.items()]
        items = [(m, c) for m, c in items if c]
        degree = sum(items[0][0]) if items else -1
        seen = _positions_seen.setdefault(degree, {})
        try:
            positions = [seen[m] for m, _ in items]
        except KeyError:
            if any(len(m) != NVARS or min(m) < 0 for m, _ in items):
                raise ValueError("a monomial is four nonnegative exponents") from None
            degrees = sorted({sum(m) for m, _ in items})
            if len(degrees) > 1:
                raise ValueError("terms of degrees %s are not one form" % degrees) from None
            seen.update((m, monomial_position(m)) for m, _ in items)
            positions = [seen[m] for m, _ in items]
        coeffs = np.zeros(monomial_count(degree), dtype=np.int64)
        coeffs[positions] = [c for _, c in items]
        form = cls.__new__(cls)
        form._hold(degree, coeffs, p)
        return form

    @classmethod
    def zero(cls, p):
        return cls(-1, (), p)

    @classmethod
    def constant(cls, c, p):
        return cls(0, [c], p)

    @classmethod
    def linear_form(cls, coeffs, p):
        """c0*x0 + c1*x1 + c2*x2 + c3*x3 (monomials_of_degree(1) is x0..x3)."""
        return cls(1, coeffs, p)

    def is_zero(self):
        return self.degree < 0

    def _key(self):
        return (self.degree, self.p, self.coeffs.tobytes())

    def __eq__(self, other):
        return isinstance(other, MultiPoly) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __reduce__(self):
        # rebuilt through __init__, so an unpickled vector is read-only too
        return (MultiPoly, (self.degree, self.coeffs, self.p))

    # canonical text format -------------------------------------------------

    def render(self):
        """Terms in the order of monomials_of_degree, descending grevlex."""
        if self.is_zero():
            return "0"
        monos = monomials_of_degree(self.degree)
        nonzero = np.flatnonzero(self.coeffs)
        parts = []
        for i, c in zip(nonzero.tolist(), self.coeffs[nonzero].tolist()):
            m = monos[i]
            factors = [str(c)] if c != 1 or not self.degree else []
            for name, e in zip(_VARNAMES, m):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append("%s^%d" % (name, e))
            parts.append("*".join(factors))
        return " + ".join(parts)

    @classmethod
    def parse(cls, text, p, degree=None):
        """The form a render() text writes.  With a degree given, a term of
        another degree raises ValueError before any vector is built: the
        single term x0^t names a vector of C(t+3, 3) coefficients."""
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
            if degree is not None and monomial_degree(m) != degree:
                raise ValueError("term %r is not of degree %d" % (chunk, degree))
            terms[m] = (terms.get(m, 0) + coeff) % p
        return cls.from_terms(terms, p)

    def __repr__(self):
        return "MultiPoly(%s mod %d)" % (self.render(), self.p)
