"""Monic univariate polynomial arithmetic and factorization over GF(p).

Polynomials are coefficient sequences in ascending degree, entries in
[0, p).  Unlike the rest of the package, this module accepts p = 2 as
well: the split-statistics experiments cross-check factor counts over
GF(2) and GF(3).

Factorization is square-free decomposition, then distinct-degree
splitting, then randomized equal-degree (Cantor-Zassenhaus) splitting;
the char-2 case uses the trace map instead of an exponentiation by
(q^d - 1)/2.  Distinct-degree splitting applies the Frobenius map
h -> h^p mod c as a matrix (von zur Gathen-Shoup 1992): its rows
x^(j*p) mod c are read off a power of the companion matrix of c once per
input, so each round is one vector-matrix product, a reduction and a gcd.
The products go through gf._safe_matmul, which multiplies in float64
through BLAS, by limbs where a sum could pass 2^53 (at p = 2^31 - 1), so
the splitting is exact for p = 2 and every odd p < 2^31.  It serves
factor() and the search for a degree-d factor, which need the product of
each degree class and split only the classes they take in part.

When only the degrees are wanted, factor_degree_profiles() reads them for
a whole stack of polynomials of one degree at once: the Frobenius rows of
every member come from stacked products, and the degree of each
gcd(c, x^(p^d) - x) from one Euclid over all the stack's pairs, carried
out by cross-multiplication so that it needs no inverse.  The Monte Carlo
of gorlink.splitstats reads its trials this way, 32 at a time.  The list
code stays for the class products, and on one polynomial of degree <= 40
it is also the faster of the two.

Which degrees a factor can have is read off the factor-degree profile
[(degree, count)] by degree_sums(), a bitmask of the reachable degree
sums.  A profile is a cycle type, so gorlink.splitstats counts the
profiles of degree n that reach k by a dynamic program over cycle
lengths whose state carries the same mask, grown by the same step
mask |= mask << degree, that find_factor_of_degree() and the Monte Carlo
use.

Factor lists are returned in a canonical order (degree, then the
ascending-degree coefficient tuple, lexicographically) so the output is
deterministic even though the splitting is randomized.
"""

import numpy as np

from ._frozen import Frozen
from .gf import _reduce, _safe_matmul, inv_mod
from .rng import SplitStream

__all__ = [
    "UniPoly",
    "is_squarefree",
    "factor",
    "factor_degree_profiles",
    "degree_sums",
    "find_factor_of_degree",
    "random_monic",
]

_EDF_RETRIES = 64


# ---------------------------------------------------------------------------
# raw coefficient-list helpers (ascending degree, normalized: no trailing 0)


def _trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _add(a, b, p):
    n = max(len(a), len(b))
    out = [0] * n
    for i, x in enumerate(a):
        out[i] = x
    for i, x in enumerate(b):
        out[i] = (out[i] + x) % p
    return _trim(out)


def _sub(a, b, p):
    n = max(len(a), len(b))
    out = [0] * n
    for i, x in enumerate(a):
        out[i] = x
    for i, x in enumerate(b):
        out[i] = (out[i] - x) % p
    return _trim(out)


def _mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim([v % p for v in out])


def _scale(a, c, p):
    c %= p
    if c == 0:
        return []
    return [x * c % p for x in a]


def _divmod(a, b, p):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    inv = inv_mod(lb, p)
    q = [0] * max(0, len(r) - db)
    while len(r) - 1 >= db and r:
        c = r[-1] * inv % p
        k = len(r) - 1 - db
        q[k] = c
        for i in range(db + 1):
            r[k + i] = (r[k + i] - c * b[i]) % p
        _trim(r)
    return _trim(q), r


def _mod(a, b, p):
    return _divmod(a, b, p)[1]


def _monic(a, p):
    if not a:
        return a
    if a[-1] == 1:
        return list(a)
    return _scale(a, inv_mod(a[-1], p), p)


def _gcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        a, b = b, _mod(a, b, p)
    return _monic(a, p)


def _deriv(a, p):
    return _trim([i * a[i] % p for i in range(1, len(a))])


def _mulmod(a, b, f, p):
    return _mod(_mul(a, b, p), f, p)


def _powmod(a, e, f, p):
    result = [1]
    base = _mod(a, f, p)
    while e:
        if e & 1:
            result = _mulmod(result, base, f, p)
        base = _mulmod(base, base, f, p)
        e >>= 1
    return result


# ---------------------------------------------------------------------------


class UniPoly(Frozen):
    """Univariate polynomial over GF(p); coefficients ascending by degree."""

    __slots__ = ("coeffs", "p")

    def __init__(self, coeffs, p):
        if p < 2:
            raise ValueError("modulus must be a prime >= 2")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coeffs", tuple(_trim([int(c) % p for c in coeffs])))

    @classmethod
    def zero(cls, p):
        return cls((), p)

    @classmethod
    def one(cls, p):
        return cls((1,), p)

    @classmethod
    def x(cls, p):
        return cls((0, 1), p)

    @property
    def degree(self):
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self):
        return not self.coeffs

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def monic(self):
        return UniPoly(_monic(list(self.coeffs), self.p), self.p)

    def _check(self, other):
        if self.p != other.p:
            raise ValueError("mixed moduli %d and %d" % (self.p, other.p))

    def __add__(self, other):
        self._check(other)
        return UniPoly(_add(list(self.coeffs), list(other.coeffs), self.p), self.p)

    def __sub__(self, other):
        self._check(other)
        return UniPoly(_sub(list(self.coeffs), list(other.coeffs), self.p), self.p)

    def __mul__(self, other):
        self._check(other)
        return UniPoly(_mul(list(self.coeffs), list(other.coeffs), self.p), self.p)

    def __divmod__(self, other):
        self._check(other)
        q, r = _divmod(list(self.coeffs), list(other.coeffs), self.p)
        return UniPoly(q, self.p), UniPoly(r, self.p)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def gcd(self, other):
        self._check(other)
        return UniPoly(_gcd(self.coeffs, other.coeffs, self.p), self.p)

    def derivative(self):
        return UniPoly(_deriv(list(self.coeffs), self.p), self.p)

    def evaluate(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % self.p
        return acc

    def __eq__(self, other):
        return (
            isinstance(other, UniPoly)
            and self.p == other.p
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.coeffs, self.p))

    def sort_key(self):
        """Canonical order: degree, then coefficient tuple lexicographically."""
        return (len(self.coeffs), self.coeffs)

    def coeff_csv(self):
        """Ascending coefficients as 'c0,c1,...'; empty string for zero."""
        return ",".join(str(c) for c in self.coeffs)

    @classmethod
    def from_coeff_csv(cls, text, p):
        if not text:
            return cls.zero(p)
        return cls([int(t) for t in text.split(",")], p)

    def __repr__(self):
        if not self.coeffs:
            return "UniPoly(0 mod %d)" % self.p
        terms = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                head = "" if c == 1 else "%d*" % c
                terms.append("%st" % head if i == 1 else "%st^%d" % (head, i))
        return "UniPoly(%s mod %d)" % (" + ".join(terms), self.p)


def random_monic(n, p, stream):
    """Uniformly random monic polynomial of degree n over GF(p)."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    coeffs = [stream.below(p) for _ in range(n)] + [1]
    return UniPoly(coeffs, p)


def is_squarefree(f):
    """True iff gcd(f, f') = 1; requires f nonzero."""
    if f.is_zero():
        raise ValueError("zero polynomial has no square-free test")
    if f.degree == 0:
        return True
    c = list(f.coeffs)
    d = _deriv(c, f.p)
    return bool(d) and len(_gcd(c, d, f.p)) == 1


# ---------------------------------------------------------------------------
# factorization


def _pth_root(c, p):
    # c is a polynomial in x^p; over GF(p) the root just reindexes coefficients
    return [c[i] for i in range(0, len(c), p)]


def _squarefree_decomposition(c, p):
    """Yield (squarefree factor, multiplicity) pieces of monic c."""
    out = []

    def recurse(f, scale):
        if len(f) <= 1:
            return
        df = _deriv(f, p)
        if not df:
            recurse(_pth_root(f, p), scale * p)
            return
        g = _gcd(f, df, p)
        w = _divmod(f, g, p)[0]
        i = 1
        while len(w) > 1:
            y = _gcd(w, g, p)
            z = _divmod(w, y, p)[0]
            if len(z) > 1:
                out.append((z, i * scale))
            w = y
            g = _divmod(g, y, p)[0]
            i += 1
        if len(g) > 1:
            recurse(g, scale * p)

    recurse(_monic(c, p), 1)
    return out


def _frobenius_rows(c, p):
    """Q[i] with row j = x^(j*p) mod c[i], so h(x)^p mod c[i] = h @ Q[i].

    c is an (N, n + 1) stack of monic polynomials of one degree n, as
    ascending coefficient rows; Q is (N, n, n) and each product below is
    one stacked product.  Row i of the companion matrix C is x^(i+1) mod c,
    so row i of C^p is x^(i+p) mod c; its row 0 is x^p and row j of Q is
    row j-1 times C^p.  A product M @ C moves the columns of M right by one
    and adds M's last column times C's last row, so it takes no matmul.
    """
    N, n = c.shape[0], c.shape[1] - 1
    last = -c[:, None, :n] % p  # the last row of C
    Cp = np.zeros((N, n, n), dtype=np.int64)
    Cp[:, :-1, 1:] = np.eye(n - 1, dtype=np.int64)
    Cp[:, -1:] = last
    for bit in bin(p)[3:]:  # square and multiply, leading bit first
        Cp = _safe_matmul(Cp, Cp, p)
        if bit == "1":
            M = Cp[:, :, -1:] * last
            M[:, :, 1:] += Cp[:, :, :-1]
            Cp = _reduce(M, p)
    Q = np.zeros((N, n, n), dtype=np.int64)
    Q[:, 0, 0] = 1
    for j in range(1, n):
        Q[:, j : j + 1] = _safe_matmul(Q[:, j - 1 : j], Cp, p)
    return Q


def _frobenius_orbit(c, m, p):
    """x^(p^d) mod c for d = 1..m, an (N, m, n) array for a stack c as in
    _frobenius_rows: h_1 is row 1 of Q and h_d = h_(d-1) @ Q."""
    Q = _frobenius_rows(c, p)
    H = np.empty((Q.shape[0], m, Q.shape[1]), dtype=np.int64)
    H[:, 0] = Q[:, 1]
    for d in range(1, m):
        H[:, d : d + 1] = _safe_matmul(H[:, d - 1 : d], Q, p)
    return H


def _distinct_degree(c, p):
    """Split squarefree monic c into (product-of-degree-d factors, d) parts.

    Round d reads x^(p^d) mod c off the previous round as h @ Q, reduces it
    mod the part r of c whose factors all have degree >= d, and splits off
    gcd(r, x^(p^d) - x), the product of the degree-d factors of r.
    """
    n = len(c) - 1
    if n < 2:
        return [(list(c), n)] if n else []
    Q = _frobenius_rows(np.array([c], dtype=np.int64), p)[0]
    h = np.eye(1, n, 1, dtype=np.int64)  # x mod c
    out = []
    r = list(c)
    d = 0
    while len(r) - 1 > 2 * d + 1:
        d += 1
        h = _safe_matmul(h, Q, p)
        hm = _mod(_trim(h[0].tolist()), r, p)
        g = _gcd(r, _sub(hm, [0, 1], p), p)
        if len(g) > 1:
            out.append((g, d))
            r = _divmod(r, g, p)[0]
    if len(r) > 1:
        out.append((r, len(r) - 1))
    return out


def _equal_degree_split(c, d, p, stream):
    """One random split of squarefree monic c (all factors of degree d)."""
    n = len(c) - 1
    for _ in range(_EDF_RETRIES):
        a = [stream.below(p) for _ in range(n)]
        _trim(a)
        if len(a) <= 1:
            continue
        if p == 2:
            # trace map over GF(2^d)
            b = list(a)
            t = list(a)
            for _ in range(d - 1):
                t = _mulmod(t, t, c, p)
                b = _add(b, t, p)
            g = _gcd(c, b, p)
        else:
            g0 = _gcd(c, a, p)
            if 1 < len(g0) < len(c):
                return g0
            b = _powmod(a, (pow(p, d) - 1) // 2, c, p)
            g = _gcd(c, _sub(b, [1], p), p)
        if 1 < len(g) < len(c):
            return g
    raise RuntimeError("equal-degree splitting failed after %d tries" % _EDF_RETRIES)


def _equal_degree_factor(c, d, p, stream):
    if len(c) - 1 == d:
        return [c]
    g = _equal_degree_split(c, d, p, stream)
    rest = _divmod(c, g, p)[0]
    return _equal_degree_factor(g, d, p, stream) + _equal_degree_factor(
        rest, d, p, stream
    )


def factor(f, stream=None):
    """Complete factorization of a monic nonzero f of degree >= 1.

    Returns a list of (irreducible monic UniPoly, multiplicity) pairs in
    canonical order.  The product over all pairs reproduces f exactly.
    """
    if f.is_zero() or not f.is_monic() or f.degree < 1:
        raise ValueError("factor() expects a monic polynomial of degree >= 1")
    if stream is None:
        stream = SplitStream(0x5EED).child("unipoly-factor")
    p = f.p
    found = []
    for sf, mult in _squarefree_decomposition(list(f.coeffs), p):
        for prod, d in _distinct_degree(sf, p):
            for irr in _equal_degree_factor(prod, d, p, stream):
                found.append((UniPoly(irr, p), mult))
    found.sort(key=lambda pair: pair[0].sort_key())
    return found


def factor_degree_profiles(polys):
    """Factor-degree profile of each of a stack of monic polynomials.

    The polynomials share one degree n >= 1 and one p (p = 2 allowed).
    Returns, per polynomial, its sorted [(degree, count)] profile, or None
    when it is not square-free.

    For square-free c, D_d = deg gcd(c, x^(p^d) - x) = sum over e | d of
    e * n_e, with n_e the number of factors of degree e (von zur Gathen and
    Gerhard, Modern Computer Algebra, 14.2), so d * n_d is D_d minus the
    e * n_e of the proper divisors e of d, and what D_{n//2} leaves of n is
    at most one factor of degree above n/2.  Every h_d = x^(p^d) mod c, for
    d = 1..n//2, comes from stacked products h <- h @ Q with the Frobenius
    rows Q, and one Euclid (_gcd_degrees) runs over all the pairs
    (c, c') and (c, h_d - x) of the stack at once.  factor() and
    find_factor_of_degree() need the degree-class products, not just their
    degrees, and keep the one-polynomial distinct-degree splitting, which
    is also the faster of the two on a single polynomial of degree <= 40.
    """
    polys = list(polys)
    if not polys:
        return []
    n, p = polys[0].degree, polys[0].p
    if n < 1 or any(f.degree != n or f.p != p or not f.is_monic() for f in polys):
        raise ValueError("degree profiles expect monic polynomials of one degree >= 1 and one p")
    c = np.array([f.coeffs for f in polys], dtype=np.int64)
    N, m = len(polys), n // 2
    # row 0 of each polynomial pairs c with c', row d with h_d - x
    second = np.zeros((N, m + 1, n + 1), dtype=np.int64)
    second[:, 0, :n] = c[:, 1:] * np.arange(1, n + 1) % p
    if m:
        second[:, 1:, :n] = _frobenius_orbit(c, m, p)
        second[:, 1:, 1] = (second[:, 1:, 1] - 1) % p
    degrees = _gcd_degrees(
        np.repeat(c, m + 1, axis=0), second.reshape(-1, n + 1), p
    ).reshape(N, m + 1)
    profiles = []
    for D in degrees.tolist():
        if D[0] > 0:
            profiles.append(None)
            continue
        covered = [0] * (m + 1)  # covered[d] = d * n_d
        for d in range(1, m + 1):
            covered[d] = D[d] - sum(covered[e] for e in range(1, d) if d % e == 0)
        profile = [(d, covered[d] // d) for d in range(1, m + 1) if covered[d]]
        if n > sum(covered):
            profile.append((n - sum(covered), 1))
        profiles.append(profile)
    return profiles


def _gcd_degrees(A, B, p):
    """deg gcd(A[r], B[r]) for each pair of rows of ascending coefficients
    (-1 for two zero rows).

    The rows are kept descending from their leading term, so that x^s * b,
    lined up under a of degree deg b + s, is the row of b itself.  Each step
    replaces the side a of higher degree by lc(b) * a - lc(a) * x^s * b,
    which cancels its leading term with no inverse: every product of two
    residues stays below 2**62.  A pair is done when its lower side is 0.
    """
    W = A.shape[1]
    A, B = A[:, ::-1].copy(), B[:, ::-1].copy()
    da, db = np.full(len(A), W - 1), np.full(len(B), W - 1)
    _lead(A, da)
    _lead(B, db)
    out = np.empty(len(A), dtype=np.int64)
    rows = np.arange(len(A))
    T = np.empty_like(A)
    while True:
        swap = da < db
        if swap.any():
            A[swap], B[swap] = B[swap], A[swap]
            da[swap], db[swap] = db[swap], da[swap]
        done = db < 0
        if done.any():
            out[rows[done]] = da[done]
            live = ~done
            if not live.any():
                return out
            rows, A, B, da, db = rows[live], A[live], B[live], da[live], db[live]
            T = np.empty_like(A)
        # one step, with T as its only scratch array, so that the steps
        # allocate nothing of the stack's size
        np.multiply(B, A[:, :1], out=T)
        A *= B[:, :1]
        A -= T
        np.floor_divide(A, p, out=T)
        T *= p
        A -= T
        T[:, :-1] = A[:, 1:]  # drop the cancelled leading term
        T[:, -1] = 0
        A, T = T, A
        da -= 1
        _lead(A, da)


def _lead(X, deg):
    """Shift each descending row of X left past its leading zeros, in place,
    lowering its degree in deg; a zero row gets degree -1."""
    deg[~X.any(axis=1)] = -1
    shift = (X[:, 0] == 0) & (deg >= 0)
    while shift.any():  # rare once a step has cancelled the leading term
        X[shift, :-1] = X[shift, 1:]
        X[shift, -1] = 0
        deg[shift] -= 1
        shift &= X[:, 0] == 0


def degree_sums(profile):
    """Bitmask of the degree sums reachable from a [(degree, count)] profile.

    Bit s is set iff some sub-multiset of the factors, taking up to count
    factors of each degree, has degrees summing to s.
    """
    mask = 1
    for deg, count in profile:
        for _ in range(count):
            mask |= mask << deg
    return mask


def find_factor_of_degree(f, d, stream=None):
    """Product of irreducible factors of f with degrees summing to d.

    f must be monic and square-free.  Among all sub-multisets of the
    canonical factor list whose degrees sum to d, the lexicographically
    least (prefer the earliest factor at each step) is chosen, so the
    result is deterministic.  Returns None when no sub-multiset works.

    Reachability and how many factors each degree class gives are read off
    the distinct-degree profile alone; a class taken whole contributes its
    distinct-degree product, and only a class taken in part is split into
    its irreducible factors.
    """
    if d < 0:
        raise ValueError("factor degree must be >= 0")
    if not f.is_monic() or f.degree < 1:
        raise ValueError("find_factor_of_degree expects a monic nonconstant input")
    if not is_squarefree(f):
        raise ValueError("input must be square-free; retry with a new projection")
    if d == 0:
        return UniPoly.one(f.p)
    if d > f.degree:
        return None
    p = f.p
    classes = _distinct_degree(list(f.coeffs), p)
    profile = [(deg, (len(prod) - 1) // deg) for prod, deg in classes]
    # the canonical factor list runs through these classes by ascending
    # degree; reach[i] = degree sums from classes[i:]
    reach = [degree_sums(profile[i:]) for i in range(len(profile) + 1)]
    if not (reach[0] >> d) & 1:
        return None
    if stream is None:
        stream = SplitStream(0x5EED).child("unipoly-factor")
    # Taking the earliest factor whenever the rest can still complete the
    # sum takes, from each class, its first c factors for the largest
    # feasible c; only a class taken in part needs equal-degree splitting.
    out = [1]
    need = d
    for i, (prod, deg) in enumerate(classes):
        count = profile[i][1]
        c = max(
            k for k in range(min(count, need // deg) + 1)
            if (reach[i + 1] >> (need - k * deg)) & 1
        )
        if c == count:
            out = _mul(out, prod, p)
        elif c:
            for g in sorted(_equal_degree_factor(prod, deg, p, stream), key=tuple)[:c]:
                out = _mul(out, g, p)
        need -= c * deg
    return UniPoly(out, p)
