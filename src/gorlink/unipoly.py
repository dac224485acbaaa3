"""Monic univariate polynomials over GF(p): factor degrees and the search
for a factor of given degree.

Polynomials are coefficient sequences in ascending degree, entries in
[0, p).  Unlike the rest of the package, this module accepts p = 2 as
well: the split-statistics experiments cross-check factor counts over
GF(2) and GF(3).  Every public call checks its modulus once, up front: p
must be 2 or an odd prime below 2^31.

The distinct-degree data have one path.  For square-free monic c of
degree n, G_e = gcd(c, x^(p^e) - x) is the product of the irreducible
factors of c whose degree divides e (von zur Gathen and Gerhard, Modern
Computer Algebra, 14.2).  Every h_e = x^(p^e) mod c, e = 1..n//2, comes
from stacked products with the Frobenius matrix of c, read off a power of
its companion matrix (von zur Gathen-Shoup 1992) through gf._safe_matmul,
which is exact for p = 2 and every odd p < 2^31.  One Euclid then runs
over all the pairs (c, c') and (c, h_e - x) of a stack of polynomials of
one degree, by cross-multiplication, so with no inverse.  It gives each
pair's gcd degree and last nonzero row: (c, c') tells square-freeness,
the degrees D_e give the factor-degree profile, and the class of degree
e, the product of the factors of that degree, is G_e divided exactly by
the classes of the proper divisors of e.

factor_degree_profiles() reads the profiles of a stack, which is how the
Monte Carlo of gorlink.splitstats reads its trials, 32 at a time.
find_factor_of_degree() runs the same computation on a stack of one; it
takes a class it needs whole as it is and splits only a class it takes in
part, by randomized equal-degree (Cantor-Zassenhaus) splitting on
coefficient lists, where the char-2 case uses the trace map instead of an
exponentiation by (q^d - 1)/2.

Which degrees a factor can have is read off the factor-degree profile
[(degree, count)] by degree_sums(), a bitmask of the reachable degree
sums.  A profile is a cycle type, so gorlink.splitstats counts the
profiles of degree n that reach k by a dynamic program over cycle
lengths whose state carries the same mask, grown by the same step
mask |= mask << degree, that find_factor_of_degree() and the Monte Carlo
use.

Factors are taken in a canonical order (degree, then the ascending-degree
coefficient tuple, lexicographically), so the factor found is
deterministic even though the splitting is randomized.
"""

import functools

import numpy as np

from ._frozen import Frozen
from .gf import _reduce, _safe_matmul, check_modulus, inv_mod
from .rng import SplitStream

__all__ = [
    "UniPoly",
    "NotSquarefreeError",
    "is_squarefree",
    "gcd_degree",
    "factor_degree_profiles",
    "degree_sums",
    "find_factor_of_degree",
    "random_monic",
]

_EDF_RETRIES = 64


class NotSquarefreeError(ValueError):
    """find_factor_of_degree was given a polynomial with a repeated factor."""


@functools.lru_cache(maxsize=None)
def _field(p):
    """p, once it is known to be 2 or an odd prime below 2^31; a bad p
    raises ValueError every time, since an exception is not cached."""
    return p if p == 2 else check_modulus(p)


# ---------------------------------------------------------------------------
# raw coefficient-list helpers of the equal-degree split (ascending degree,
# normalized: no trailing 0)


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


def _mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim([v % p for v in out])


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


def _gcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        a, b = b, _mod(a, b, p)
    if a and a[-1] != 1:
        inv = inv_mod(a[-1], p)
        a = [x * inv % p for x in a]
    return a


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
    def one(cls, p):
        return cls((1,), p)

    @property
    def degree(self):
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self):
        return not self.coeffs

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __eq__(self, other):
        return (
            isinstance(other, UniPoly)
            and self.p == other.p
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.coeffs, self.p))

    def coeff_csv(self):
        """Ascending coefficients as 'c0,c1,...'; empty string for zero."""
        return ",".join(str(c) for c in self.coeffs)

    @classmethod
    def from_coeff_csv(cls, text, p):
        return cls([int(t) for t in text.split(",")] if text else (), p)

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


def _pair_gcd_degree(a, b, p):
    """deg gcd(a, b) of two coefficient sequences, -1 when both are zero."""
    A = np.zeros((2, max(len(a), len(b), 1)), dtype=np.int64)
    A[0, : len(a)] = a
    A[1, : len(b)] = b
    return int(_gcd_rows(A[:1], A[1:], p)[0][0])


def is_squarefree(f):
    """True iff gcd(f, f') = 1; requires f nonzero."""
    if f.is_zero():
        raise ValueError("zero polynomial has no square-free test")
    p = _field(f.p)
    c = f.coeffs
    return _pair_gcd_degree(c, [i * c[i] % p for i in range(1, len(c))], p) == 0


def gcd_degree(f, g):
    """deg gcd(f, g) for f and g over one GF(p); -1 when both are zero."""
    if f.p != g.p:
        raise ValueError("mixed moduli %d and %d" % (f.p, g.p))
    return _pair_gcd_degree(f.coeffs, g.coeffs, _field(f.p))


# ---------------------------------------------------------------------------
# distinct-degree data of a stack: one Euclid over (c, c') and (c, h_e - x)


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


def _degree_class_gcds(c, p):
    """The Euclid of every pair (c, c') and (c, h_e - x), e = 1..n//2, of a
    stack c as in _frobenius_rows.

    Returns the degrees, (N, n//2 + 1), and the last nonzero rows,
    (N, n//2 + 1, n + 1), as _gcd_rows gives them; entry 0 of each
    polynomial is its pair (c, c'), entry e its G_e up to a unit.
    """
    N, n = c.shape[0], c.shape[1] - 1
    m = n // 2
    second = np.zeros((N, m + 1, n + 1), dtype=np.int64)
    second[:, 0, :n] = c[:, 1:] * np.arange(1, n + 1) % p
    if m:
        second[:, 1:, :n] = _frobenius_orbit(c, m, p)
        second[:, 1:, 1] = (second[:, 1:, 1] - 1) % p
    degrees, rows = _gcd_rows(np.repeat(c, m + 1, axis=0), second.reshape(-1, n + 1), p)
    return degrees.reshape(N, m + 1), rows.reshape(N, m + 1, n + 1)


def _gcd_rows(A, B, p):
    """deg gcd(A[r], B[r]) for each pair of rows of ascending coefficients
    (-1 for two zero rows), and the pair's last nonzero row: the gcd times
    a unit, descending from its leading term at column 0.

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
    degrees = np.empty(len(A), dtype=np.int64)
    last = np.empty_like(A)
    rows = np.arange(len(A))
    T = np.empty_like(A)
    while True:
        swap = da < db
        if swap.any():
            A[swap], B[swap] = B[swap], A[swap]
            da[swap], db[swap] = db[swap], da[swap]
        done = db < 0
        if done.any():
            degrees[rows[done]] = da[done]
            last[rows[done]] = A[done]
            live = ~done
            if not live.any():
                return degrees, last
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
    shift = X[:, 0] == 0
    if not shift.any():  # rare once a step has cancelled the leading term
        return
    deg[~X.any(axis=1)] = -1
    shift &= deg >= 0
    while shift.any():
        X[shift, :-1] = X[shift, 1:]
        X[shift, -1] = 0
        deg[shift] -= 1
        shift &= X[:, 0] == 0


def _profile(D, n):
    """Sorted [(degree, count)] profile of a square-free polynomial of
    degree n from D[e] = deg gcd(c, x^(p^e) - x), e = 1..n//2.

    D_e is the sum over d | e of d * n_d, with n_d the number of factors of
    degree d, so e * n_e is D_e minus the d * n_d of the proper divisors d
    of e, and what D_{n//2} leaves of n is at most one factor of degree
    above n/2.
    """
    m = len(D) - 1
    covered = [0] * (m + 1)  # covered[e] = e * n_e
    for e in range(1, m + 1):
        covered[e] = D[e] - sum(covered[d] for d in range(1, e) if e % d == 0)
    profile = [(e, covered[e] // e) for e in range(1, m + 1) if covered[e]]
    if n > sum(covered):
        profile.append((n - sum(covered), 1))
    return profile


def factor_degree_profiles(polys):
    """Factor-degree profile of each of a stack of monic polynomials.

    The polynomials share one degree n >= 1 and one p (p = 2 allowed).
    Returns, per polynomial, its sorted [(degree, count)] profile, or None
    when it is not square-free.  The degrees of the gcds of one Euclid over
    the stack (_degree_class_gcds) give both, by _profile.
    """
    polys = list(polys)
    if not polys:
        return []
    n, p = polys[0].degree, polys[0].p
    if n < 1 or any(f.degree != n or f.p != p or not f.is_monic() for f in polys):
        raise ValueError("degree profiles expect monic polynomials of one degree >= 1 and one p")
    degrees, _ = _degree_class_gcds(
        np.array([f.coeffs for f in polys], dtype=np.int64), _field(p)
    )
    return [_profile(D, n) if D[0] == 0 else None for D in degrees.tolist()]


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


# ---------------------------------------------------------------------------
# equal-degree splitting of a class taken in part


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
            g = _gcd(c, _add(b, [p - 1], p), p)
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


def find_factor_of_degree(f, d, stream=None):
    """Product of irreducible factors of f with degrees summing to d.

    f must be monic and square-free; NotSquarefreeError, a ValueError,
    says it is not.  Among all sub-multisets of the
    canonical factor list whose degrees sum to d, the lexicographically
    least (prefer the earliest factor at each step) is chosen, so the
    result is deterministic.  Returns None when no sub-multiset works.

    One Euclid (_degree_class_gcds) tells square-freeness and gives the
    profile and the gcds G_e.  Reachability and how many factors each
    degree class gives are read off the profile alone; a class taken whole
    contributes its product, and only a class taken in part is split into
    its irreducible factors.
    """
    if d < 0:
        raise ValueError("factor degree must be >= 0")
    if not f.is_monic() or f.degree < 1:
        raise ValueError("find_factor_of_degree expects a monic nonconstant input")
    p, n = _field(f.p), f.degree
    degrees, rows = _degree_class_gcds(np.array([f.coeffs], dtype=np.int64), p)
    D = degrees[0].tolist()
    if D[0] > 0:
        raise NotSquarefreeError("input must be square-free; retry with a new projection")
    if d == 0:
        return UniPoly.one(p)
    if d > n:
        return None
    profile = _profile(D, n)
    # the canonical factor list runs through the classes by ascending
    # degree; reach[i] = degree sums from profile[i:]
    reach = [degree_sums(profile[i:]) for i in range(len(profile) + 1)]
    if not (reach[0] >> d) & 1:
        return None
    if stream is None:
        stream = SplitStream(0x5EED).child("unipoly-factor")
    m = len(D) - 1
    products = {}

    def product(e):
        # G_e over the classes of the proper divisors of e; the one class
        # above n/2 is f over every other class
        if e not in products:
            if e <= m:
                g = rows[0, e, D[e] :: -1].tolist()
                inv = inv_mod(g[-1], p)
                g = [x * inv % p for x in g]
            else:
                g = list(f.coeffs)
            for low, _ in profile:
                if low < e and (e > m or e % low == 0):
                    g = _divmod(g, product(low), p)[0]
            products[e] = g
        return products[e]

    # Taking the earliest factor whenever the rest can still complete the
    # sum takes, from each class, its first c factors for the largest
    # feasible c; only a class taken in part needs equal-degree splitting.
    out = [1]
    need = d
    for i, (deg, count) in enumerate(profile):
        c = max(
            k for k in range(min(count, need // deg) + 1)
            if (reach[i + 1] >> (need - k * deg)) & 1
        )
        if c == count:
            out = _mul(out, product(deg), p)
        elif c:
            for g in sorted(_equal_degree_factor(product(deg), deg, p, stream), key=tuple)[:c]:
                out = _mul(out, g, p)
        need -= c * deg
    return UniPoly(out, p)
