"""Tangent-space dominance tests for Gorenstein links of point schemes.

A degree-zero homomorphism from the Pfaffian ideal I_G to S/I_G is
pinned down by the images of the generators, one element of (S/I_G)_g in
each generator degree g, subject to one linear constraint block per row
of the skew presentation matrix (whose columns span the full first
syzygy module).  The solutions are the left kernel K of one constraint
matrix over GF(p).

For an ideal J containing I_G, J/I_G is a submodule of S/I_G, so a
relation vanishes in J/I_G exactly when it vanishes in S/I_G: the maps
into J/I_G are the maps in K whose generator images lie in (J/I_G)_g.
J is held as a gorlink.groebner.SubIdeal over I_G, whose pieces are
echelon bases of (J/I_G)_g in the same coordinates as K.  Reducing each
generator's block of K modulo that basis is linear, so
dim Hom(I_G, J/I_G)_0 is dim K minus the rank of the reduced blocks.  One
kernel per attempt serves S/I_G, I_X/I_G and I_Y/I_G.

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
from .gf import check_modulus, kernel_basis_array, rank, reduce_rows
from .groebner import groebner, h_vector, has_h_vector
from .gorenstein import (
    ExtractionError,
    extract_subscheme,
    generic_degree_matrix,
    involution_holds,
    is_reduced_and_split,
    random_gorenstein,
    residual,
    submaximal_pfaffians,
    witness_splits,
    DegeneracyError,
)
from .hvectors import (
    HVector,
    _entries,
    additivity_shift,
    family_dim_of,
    generic_hvector,
    parse_gorenstein_type,
)
from .rng import SplitStream

__all__ = [
    "hom_dim_zero",
    "EdgeCertificate",
    "verify_edge",
    "replay_certificate",
    "DEFAULT_MAX_ATTEMPTS",
]

DEFAULT_MAX_ATTEMPTS = 50


def hom_dim_zero(M, ideal_g, subs):
    """Degree-zero Hom dimensions from the Pfaffian ideal I_G of M.

    Returns dim Hom(I_G, J/I_G)_0 for each ideal J in subs, in order,
    followed by dim Hom(I_G, S/I_G)_0.  The unknowns are the generator
    images in S/I_G, one element per generator degree; the constraints say
    every row of the skew matrix maps to zero.  The maps into J/I_G are
    those whose generator images lie in J/I_G, so each J only restricts the
    one kernel.  Each J must be a SubIdeal over ideal_g itself, which is
    how it contains I_G; raises ValueError otherwise.
    """
    for J in subs:
        if getattr(J, "base", None) is not ideal_g:
            raise ValueError("hom_dim_zero needs each J held over I_G")
    dm = M.degree_matrix
    gens = dm.gen_degrees
    sigma = dm.socle_degree
    p = M.p
    offsets = np.cumsum([0] + [ideal_g.hf(g) for g in gens])
    col_offsets = np.cumsum([0] + [ideal_g.hf(sigma - g) for g in gens])
    A = np.zeros((int(offsets[-1]), int(col_offsets[-1])), dtype=np.int64)
    # entry (k, j) multiplies the image of generator j into relation k; the
    # entry (j, k) below the diagonal is -f, so its block is minus f's
    for (k, j), f in M.upper.items():
        A[offsets[j] : offsets[j + 1], col_offsets[k] : col_offsets[k + 1]] = (
            ideal_g.mult_matrix(f, gens[j])
        )
        A[offsets[k] : offsets[k + 1], col_offsets[j] : col_offsets[j + 1]] = (
            -ideal_g.mult_matrix(f, gens[k]) % p
        )
    # the solutions are the left kernel of A
    K = kernel_basis_array(A.T, p)
    dims = []
    for J in subs:
        # each generator's image modulo the echelon basis of (J/I_G)_g
        blocks = [
            reduce_rows(K[:, offsets[j] : offsets[j + 1]], *J.relative(g), p)
            for j, g in enumerate(gens)
        ]
        dims.append(len(K) - rank(np.hstack(blocks), p))
    return (*dims, len(K))


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
        unknown = sorted(kw.keys() - self.__slots__)
        if unknown:
            raise TypeError("EdgeCertificate has no field %s" % ", ".join(unknown))
        for name in self.__slots__:
            object.__setattr__(self, name, kw.get(name))


def _run_attempt(h, d, p, seed, attempt, matrix, ideal_g, witness):
    """The certificate of one attempt whose witness is a reduced split:
    extracts X and Y, runs every test and takes the verdict from them.
    Raises ExtractionError when the pair cannot be taken."""
    e = h.degree - d
    gdim = family_dim_of(h)
    ideal_x = extract_subscheme(ideal_g, witness.ell, witness.xh, witness.factor)
    ideal_y = residual(ideal_g, ideal_x)
    if not involution_holds(ideal_g, ideal_x, ideal_y, witness.xh):
        raise ExtractionError("liaison involution failed")
    h_x, h_y = h_vector(ideal_x), h_vector(ideal_y)
    # HF = min(C(t + 3, 3), d) up to stabilization iff the h-vector is
    # generic(d), as the tetrahedral numbers C(t + 3, 3) strictly increase
    generic_x = h_x == generic_hvector(d).entries
    generic_y = h_y == generic_hvector(e).entries
    hom_ix, hom_iy, hom_sg = hom_dim_zero(matrix, ideal_g, (ideal_x, ideal_y))
    # exact-sequence bound from 0 -> Hom(I,I_X/I) -> Hom(I,S_G) -> Hom(I,S_X):
    # dim Hom(I_G, S_X)_0 = 3d needs X reduced with generic Hilbert function,
    # so only a generic witness can turn a violation into an internal error
    if generic_x and generic_y:
        if hom_sg > hom_ix + 3 * d or hom_sg > hom_iy + 3 * e:
            raise ExtractionError("exact sequence bound violated")
    tests = {
        "reduced_split": True,
        "generic_hf_X": generic_x,
        "generic_hf_Y": generic_y,
        "additivity": additivity_shift(h, h_x, h_y) is not None,
        "hom_IX": hom_ix == gdim - 3 * d,
        "hom_IY": hom_iy == gdim - 3 * e,
        "smooth_SG": hom_sg == gdim,
    }
    return EdgeCertificate(
        h=h, d=d, e=e, p=p, seed=seed, attempt=attempt, matrix=matrix, witness=witness,
        hom_IX=hom_ix, hom_IY=hom_iy, hom_SG=hom_sg, gdim=gdim, tests=tests,
        verdict="verified" if all(tests.values()) else "refuted", h_x=h_x, h_y=h_y,
    )


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
    if not (1 <= d <= h.degree - 1):
        raise ValueError("need 1 <= d < degree(h)")
    family_dim_of(h)  # refuses an h that is not admissible before any draw
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
            last = _run_attempt(h, d, p, seed, attempt, matrix, ideal, witness)
        except ExtractionError:
            continue
        if last.verdict == "verified":
            return last
    if last is not None:
        return last
    return EdgeCertificate(h=h, d=d, e=h.degree - d, p=p, seed=seed, attempt=max_attempts,
                           tests={"reduced_split": False}, verdict="inconclusive")


def replay_certificate(cert):
    """Rebuild a certificate from its stored matrix and witness and compare.

    Entirely deterministic: first re-checks that 0 < d < degree(h), that h
    is a Gorenstein h-vector, e = degree(h) - d, gdim = g(h) and that the
    stored matrix has the generic degree layout of h (which bounds the entry
    degrees before any Pfaffian is taken); then rebuilds the ideal from the
    matrix, checks its h-vector and that the stored projection splits it
    (square-free char poly, divisible by the stored monic degree-d factor),
    and runs the search's own attempt on the stored matrix and witness.  ok
    is whether the rebuilt certificate equals the stored one, field for
    field; the seed and attempt number are carried over, not re-derived.  A
    matrix whose Pfaffians do not cut out a zero-scheme cone is a mismatch
    too.  Returns (ok, recomputed tests, recomputed dims).
    """
    if cert.matrix is None:
        return cert.verdict == "inconclusive", {}, ()
    if not 0 < cert.d < cert.h.degree or cert.e != cert.h.degree - cert.d or (
            parse_gorenstein_type(cert.h) is None):
        return False, {}, ()
    if cert.gdim != family_dim_of(cert.h):
        return False, {}, ()
    if cert.matrix.degree_matrix != generic_degree_matrix(cert.h):
        return False, {}, ()
    gens = [f for f in submaximal_pfaffians(cert.matrix) if not f.is_zero()]
    ideal = groebner(gens, cert.p)
    if not has_h_vector(ideal, cert.h.entries) or not witness_splits(ideal, cert.witness, cert.d):
        return False, {}, ()
    try:
        again = _run_attempt(cert.h, cert.d, cert.p, cert.seed, cert.attempt, cert.matrix,
                             ideal, cert.witness)
    except ExtractionError:
        return False, {}, ()
    return again == cert, again.tests, (again.hom_IX, again.hom_IY, again.hom_SG)
