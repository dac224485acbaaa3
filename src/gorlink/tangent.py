"""Tangent-space dominance tests for Gorenstein links of point schemes.

A degree-zero homomorphism from the Pfaffian ideal I_G to a graded
module is pinned down by the images of the generators, one element of
the target in each generator degree, subject to one linear constraint
block per row of the skew presentation matrix (whose columns span the
full first syzygy module).  The dimension of that solution space is a
kernel computation over GF(p).

The dominance criterion for a candidate split deg G = d + e: with
gdim the dimension of the family of Gorenstein cones for this h-vector,
the incidence family dominates both sides iff

    dim Hom(I_G, I_X/I_G)_0 = gdim - 3d      and
    dim Hom(I_G, I_Y/I_G)_0 = gdim - 3e

at a witness (X, Y, G) where G is reduced and X, Y have generic Hilbert
functions.  dim Hom(I_G, S/I_G)_0 = gdim certifies that the witness is
a smooth point of the family; it is implied by the first equality and
recomputed as a consistency check.
"""

import numpy as np

from ._frozen import Frozen
from .gf import _safe_matmul, check_modulus, rank, rref, solve_in_rowspace
from .mpoly import MultiPoly
from .groebner import groebner, h_vector
from .gorenstein import (
    ExtractionError,
    extract_subscheme,
    is_reduced_and_split,
    random_gorenstein,
    residual,
    point_ideal_quotient,
    submaximal_pfaffians,
    witness_splits,
    DegeneracyError,
)
from .hvectors import HVector, _entries, additivity_shift, family_dim_of
from .rng import SplitStream

__all__ = [
    "QuotientRingTarget",
    "SubquotientTarget",
    "hom_dim_zero",
    "generic_hilbert_function_test",
    "EdgeCertificate",
    "verify_edge",
    "replay_certificate",
    "DEFAULT_MAX_ATTEMPTS",
]

DEFAULT_MAX_ATTEMPTS = 50


class QuotientRingTarget:
    """The module S/I as a target for degree-zero homomorphisms."""

    def __init__(self, ideal):
        self.ideal = ideal
        self.p = ideal.p

    def dim(self, t):
        return self.ideal.hf(t)

    def mult_map(self, f, t):
        return self.ideal.mult_matrix(f, t)


class SubquotientTarget:
    """The module I_num/I_den inside S/I_den, in standard-monomial coordinates."""

    def __init__(self, den, num):
        if not all(num.contains(g) for g in den.gens):
            raise ValueError("SubquotientTarget needs I_den contained in I_num")
        self.den = den
        self.num = num
        self.p = den.p
        self._frames = {}

    def _frame(self, t):
        """(B, pivots): echelonized rows spanning the piece in (S/I_den)_t."""
        if t not in self._frames:
            self._frames[t] = rref(self.den.coords(self.num.piece(t)[0], t), self.p)
        return self._frames[t]

    def dim(self, t):
        return self._frame(t)[0].shape[0]

    def basis_polys(self, t):
        B, _ = self._frame(t)
        monos = self.den.std_monomials(t)
        out = []
        for row in B:
            out.append(
                MultiPoly({monos[i]: int(c) for i, c in enumerate(row) if c}, self.p)
            )
        return out

    def mult_map(self, f, t):
        """Multiplication by f in subquotient coordinates."""
        B, _ = self._frame(t)
        target_B, target_piv = self._frame(t + f.degree)
        images = _safe_matmul(B, self.den.mult_matrix(f, t), self.p)
        return solve_in_rowspace(target_B, target_piv, images, self.p)


def hom_dim_zero(M, target):
    """dim of degree-zero homomorphisms from the Pfaffian ideal into target.

    Unknowns are the generator images, one target element per generator
    degree; the constraints say every row of the skew matrix maps to zero.
    """
    dm = M.degree_matrix
    gens = dm.gen_degrees
    sigma = dm.socle_degree
    p = M.p
    dims = [target.dim(g) for g in gens]
    offsets = np.cumsum([0] + dims)
    total_unknowns = int(offsets[-1])
    col_dims = [target.dim(sigma - g) for g in gens]
    col_offsets = np.cumsum([0] + col_dims)
    A = np.zeros((total_unknowns, int(col_offsets[-1])), dtype=np.int64)
    # entry (k, j) multiplies the image of generator j into relation k; the
    # entry (j, k) below the diagonal is -f, so its block is minus f's
    for (k, j), f in M.upper.items():
        A[offsets[j] : offsets[j + 1], col_offsets[k] : col_offsets[k + 1]] = target.mult_map(
            f, gens[j]
        )
        A[offsets[k] : offsets[k + 1], col_offsets[j] : col_offsets[j + 1]] = (
            -target.mult_map(f, gens[k]) % p
        )
    # the solutions are the left kernel of A: unknowns minus rank
    return total_unknowns - rank(A.T, p)


def generic_hilbert_function_test(ideal, d):
    """HF(S/I, t) == min(C(t+3,3), d) up to one degree past stabilization."""
    t = 0
    while True:
        expected = min((t + 1) * (t + 2) * (t + 3) // 6, d)
        if ideal.hf(t) != expected:
            return False
        if expected == d:
            return ideal.hf(t + 1) == d
        t += 1


class EdgeCertificate(Frozen):
    """Replayable witness of one link-verification run."""

    __slots__ = (
        "h",
        "d",
        "e",
        "p",
        "seed",
        "attempt",
        "matrix",
        "witness",
        "hom_IX",
        "hom_IY",
        "hom_SG",
        "gdim",
        "tests",
        "verdict",
        "h_x",
        "h_y",
    )

    def __init__(self, **kw):
        for name in self.__slots__:
            object.__setattr__(self, name, kw.get(name))


def _run_attempt(h, d, matrix, ideal_g, witness, gdim):
    """All tests downstream of a successful reduced split; returns
    (tests dict, dims tuple, h_x, h_y)."""
    e = sum(_entries(h)) - d
    tests = {
        "reduced_split": True,
        "generic_hf_X": False,
        "generic_hf_Y": False,
        "additivity": False,
        "hom_IX": False,
        "hom_IY": False,
        "smooth_SG": False,
    }
    ideal_x = extract_subscheme(ideal_g, witness.ell, witness.xh, witness.factor)
    ideal_y = residual(ideal_g, ideal_x)
    if ideal_y.scheme_degree() != e:
        raise ExtractionError("residual degree mismatch")
    if point_ideal_quotient(ideal_g, list(ideal_y.gens)) != ideal_x:
        raise ExtractionError("liaison involution failed")
    h_x, h_y = h_vector(ideal_x), h_vector(ideal_y)
    tests["generic_hf_X"] = generic_hilbert_function_test(ideal_x, d)
    tests["generic_hf_Y"] = generic_hilbert_function_test(ideal_y, e)
    tests["additivity"] = additivity_shift(h, h_x, h_y) is not None
    target_sg = QuotientRingTarget(ideal_g)
    target_ix = SubquotientTarget(ideal_g, ideal_x)
    target_iy = SubquotientTarget(ideal_g, ideal_y)
    hom_sg = hom_dim_zero(matrix, target_sg)
    hom_ix = hom_dim_zero(matrix, target_ix)
    hom_iy = hom_dim_zero(matrix, target_iy)
    # exact-sequence bound from 0 -> Hom(I,I_X/I) -> Hom(I,S_G) -> Hom(I,S_X):
    # dim Hom(I_G, S_X)_0 = 3d needs X reduced with generic Hilbert function,
    # so only a generic witness can turn a violation into an internal error
    if tests["generic_hf_X"] and tests["generic_hf_Y"]:
        if hom_sg > hom_ix + 3 * d or hom_sg > hom_iy + 3 * e:
            raise ExtractionError("exact sequence bound violated")
    tests["hom_IX"] = hom_ix == gdim - 3 * d
    tests["hom_IY"] = hom_iy == gdim - 3 * e
    tests["smooth_SG"] = hom_sg == gdim
    return tests, (hom_ix, hom_iy, hom_sg), h_x, h_y


def verify_edge(h, d, p, seed, max_attempts=DEFAULT_MAX_ATTEMPTS):
    """Search for a witness that the candidate (h, d, e) is bi-dominant.

    Loops: draw a random Gorenstein scheme, look for a reduced degree-d
    split, extract the pair, test generic Hilbert functions and both
    dominance equalities.  Verdicts: 'verified' (a witness passed all
    tests), 'refuted' (witnesses were found, none passed), or
    'inconclusive' (no reduced split appeared at all).
    """
    check_modulus(p)
    h = HVector(_entries(h))
    e = h.degree - d
    if not (1 <= d <= h.degree - 1):
        raise ValueError("need 1 <= d < degree(h)")
    gdim = family_dim_of(h)
    root = SplitStream(seed).child("edge", h.csv(), p)
    last = None
    for attempt in range(max_attempts):
        st = root.child(attempt)
        try:
            matrix, ideal = random_gorenstein(h, p, st.child("gor"))
        except DegeneracyError:
            continue
        witness = is_reduced_and_split(ideal, d, st.child("split"))
        if witness is None:
            continue
        try:
            tests, dims, h_x, h_y = _run_attempt(h, d, matrix, ideal, witness, gdim)
        except ExtractionError:
            continue
        verdict = "verified" if all(tests.values()) else "refuted"
        last = EdgeCertificate(
            h=h,
            d=d,
            e=e,
            p=p,
            seed=seed,
            attempt=attempt,
            matrix=matrix,
            witness=witness,
            hom_IX=dims[0],
            hom_IY=dims[1],
            hom_SG=dims[2],
            gdim=gdim,
            tests=tests,
            verdict=verdict,
            h_x=h_x,
            h_y=h_y,
        )
        if verdict == "verified":
            return last
    if last is not None:
        return last
    return EdgeCertificate(
        h=h,
        d=d,
        e=e,
        p=p,
        seed=seed,
        attempt=max_attempts,
        matrix=None,
        witness=None,
        hom_IX=None,
        hom_IY=None,
        hom_SG=None,
        gdim=gdim,
        tests={"reduced_split": False},
        verdict="inconclusive",
        h_x=None,
        h_y=None,
    )


def replay_certificate(cert):
    """Recompute every claim in a certificate from its stored witness.

    Entirely deterministic: rebuilds the ideal from the stored matrix,
    re-checks e = degree(h) - d, recomputes the characteristic polynomial
    of the stored projection (square-free, divisible by the stored monic
    degree-d factor), extracts the subscheme from the stored projection
    data and re-runs all the tests, comparing the h-vectors of X and Y as
    well.  Returns (ok, recomputed tests, recomputed dims).
    """
    if cert.matrix is None:
        return cert.verdict == "inconclusive", {}, ()
    if cert.e != cert.h.degree - cert.d:
        return False, {}, ()
    gens = [f for f in submaximal_pfaffians(cert.matrix) if not f.is_zero()]
    ideal = groebner(gens, cert.p)
    if h_vector(ideal) != tuple(cert.h.entries):
        return False, {}, ()
    if not witness_splits(ideal, cert.witness, cert.d):
        return False, {}, ()
    try:
        tests, dims, h_x, h_y = _run_attempt(
            cert.h, cert.d, cert.matrix, ideal, cert.witness, cert.gdim
        )
    except ExtractionError:
        return False, {}, ()
    verdict = "verified" if all(tests.values()) else "refuted"
    ok = (
        verdict == cert.verdict
        and dims == (cert.hom_IX, cert.hom_IY, cert.hom_SG)
        and tests == cert.tests
        and (h_x, h_y) == (tuple(cert.h_x), tuple(cert.h_y))
    )
    return ok, tests, dims
