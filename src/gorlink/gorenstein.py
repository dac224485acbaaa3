"""Random arithmetically Gorenstein zero-schemes in P^3 with prescribed
h-vector, and the liaison steps that split them.

A codimension-3 Gorenstein ideal is generated by the sub-maximal
Pfaffians of a skew-symmetric matrix of forms whose entry degrees are
forced by the h-vector: the free resolution numerator h(t)*(1-t)^3 lists
generator degrees at its negative coefficients, and duality pairs each
generator of degree g with a relation of degree sigma - g, sigma being
the numerator degree.  When the numerator leaves an even generator
count, a cancelling generator/relation pair sits in the middle degree
sigma/2 (this happens for type II with c = 1, e.g. the complete
intersection (2,2,4) behind {1,3,4,4,3,1}).

Reducedness and splitting are tested by projecting: the characteristic
polynomial of multiplication by ell/x_h on the degree-stable graded
piece of S/I_G is the polynomial of the image scheme on a line; a
square-free value certifies that G is reduced, and a degree-d factor
cuts out a degree-d subscheme defined over GF(p).

The subscheme is extracted degreewise: a form of degree t lies in I_X
iff its normal form, pushed into the stable piece by a power of x_h,
falls in the row space of f_d(T) where T is the multiplication operator;
that row space is exactly the space of functions on G vanishing along X.
The result equals I_G + (homogenized factor) with x_h divided out (the
saturation by x_h) and is verified through its postconditions (degree,
containment, and the liaison involution I_G : (I_G : I_X) = I_X).

Every stage takes and returns ideals as gorlink.groebner.GradedSpaces
objects, so the graded pieces of I_G, I_X and I_Y are each echelonized
once per attempt and shared by every stage that reads them.
"""

import numpy as np

from ._frozen import Frozen
from .gf import (
    charpoly_mod_p,
    extend_rref,
    kernel_basis_array,
    rref,
    reduce_rows,
    _safe_matmul,
)
from .mpoly import NVARS, MultiPoly, monomials_of_degree, product_positions
from .groebner import GradedSpaces, groebner, h_vector, with_std
from .hvectors import parse_gorenstein_type, _entries
from .unipoly import NotSquarefreeError, UniPoly, find_factor_of_degree, gcd_degree, is_squarefree

__all__ = [
    "numerator_polynomial",
    "DegreeMatrix",
    "generic_degree_matrix",
    "SkewPolyMatrix",
    "submaximal_pfaffians",
    "random_gorenstein",
    "ProjectionWitness",
    "char_poly_of_projection",
    "multiplication_operator",
    "extract_subscheme",
    "residual",
    "point_ideal_quotient",
    "is_reduced_and_split",
    "witness_splits",
    "DegeneracyError",
    "ExtractionError",
    "BadPositionError",
]

MATRIX_RETRIES = 32
PROJECTION_RETRIES = 16
DEHOMOGENIZER_RETRIES = 4


class DegeneracyError(RuntimeError):
    """A random draw failed to produce the prescribed h-vector."""


class ExtractionError(RuntimeError):
    """The projection did not separate the subscheme (degree mismatch)."""


class BadPositionError(RuntimeError):
    """No dehomogenizing linear form avoiding the scheme was found."""


def numerator_polynomial(h):
    """Coefficients of h(t) * (1-t)^3, ascending; the resolution numerator."""
    e = _entries(h)
    cube = [1, -3, 3, -1]
    out = [0] * (len(e) + 3)
    for i, hi in enumerate(e):
        for j, b in enumerate(cube):
            out[i + j] += hi * b
    return out


class DegreeMatrix(Frozen):
    """Generator degrees and entry degrees of the generic skew presentation."""

    __slots__ = ("gen_degrees", "socle_degree")

    def __init__(self, gen_degrees, socle_degree):
        gen_degrees = tuple(sorted(int(g) for g in gen_degrees))
        if len(gen_degrees) % 2 == 0:
            raise ValueError("generator count must be odd")
        object.__setattr__(self, "gen_degrees", gen_degrees)
        object.__setattr__(self, "socle_degree", int(socle_degree))

    @property
    def size(self):
        return len(self.gen_degrees)

    def entry_degree(self, i, j):
        return self.socle_degree - self.gen_degrees[i] - self.gen_degrees[j]

    def free_module_split(self):
        """((mult, twist) summands of the source, same for the target).

        The presentation maps F*(-sigma) -> F with F = (+) S(-g_i); the
        target twists are -g_i and the source twists are g_i - sigma.
        """

        def group(twists):
            out = {}
            for tw in twists:
                out[tw] = out.get(tw, 0) + 1
            return sorted((mult, tw) for tw, mult in out.items())

        target = group(-g for g in self.gen_degrees)
        source = group(g - self.socle_degree for g in self.gen_degrees)
        return source, target

    def __eq__(self, other):
        return isinstance(other, DegreeMatrix) and (
            self.gen_degrees,
            self.socle_degree,
        ) == (other.gen_degrees, other.socle_degree)

    def __repr__(self):
        return "DegreeMatrix(gens=%r, socle=%d)" % (self.gen_degrees, self.socle_degree)


def generic_degree_matrix(h):
    """Degree data of the generic skew presentation for this h-vector.

    Generator degrees are read off the negative numerator coefficients
    (the final -t^sigma excluded); an even count is completed by one
    generator in degree sigma/2, paired with a relation in the same
    degree.  Duality (relation degrees = sigma - generator degrees) is
    verified and any mismatch raises.
    """
    if parse_gorenstein_type(h) is None:
        raise ValueError("not an admissible Gorenstein h-vector: %r" % (h,))
    num = numerator_polynomial(h)
    sigma = len(num) - 1
    gens, rels = [], []
    for deg, coeff in enumerate(num):
        if 0 < deg < sigma and coeff < 0:
            gens.extend([deg] * (-coeff))
        elif 0 < deg < sigma and coeff > 0:
            rels.extend([deg] * coeff)
    if len(gens) % 2 == 0:
        if sigma % 2:
            raise ValueError("inconsistent numerator for %r" % (h,))
        gens.append(sigma // 2)
        rels.append(sigma // 2)
    if sorted(sigma - g for g in gens) != sorted(rels):
        raise ValueError("numerator fails Gorenstein duality for %r" % (h,))
    return DegreeMatrix(gens, sigma)


class SkewPolyMatrix(Frozen):
    """Skew-symmetric matrix of homogeneous forms over GF(p)."""

    __slots__ = ("degree_matrix", "upper", "p")

    def __init__(self, degree_matrix, upper, p):
        n = degree_matrix.size
        table = {}
        for (i, j), f in upper.items():
            if not (0 <= i < j < n):
                raise ValueError("upper entries need 0 <= i < j < size")
            if not f.is_zero():
                expected = degree_matrix.entry_degree(i, j)
                if not f.is_homogeneous() or f.degree != expected:
                    raise ValueError(
                        "entry (%d,%d) must be homogeneous of degree %d" % (i, j, expected)
                    )
                table[(i, j)] = f
        object.__setattr__(self, "degree_matrix", degree_matrix)
        object.__setattr__(self, "upper", table)
        object.__setattr__(self, "p", p)

    @property
    def size(self):
        return self.degree_matrix.size

    def entry(self, i, j):
        if i == j:
            return MultiPoly.zero(self.p)
        if i < j:
            return self.upper.get((i, j), MultiPoly.zero(self.p))
        return -self.upper.get((j, i), MultiPoly.zero(self.p))

    def serialize(self):
        n = self.size
        lines = ["size: %d" % n,
                 "gen_degrees: %s" % ",".join(map(str, self.degree_matrix.gen_degrees)),
                 "socle: %d" % self.degree_matrix.socle_degree]
        for i in range(n):
            for j in range(i + 1, n):
                lines.append("m[%d][%d]: %s" % (i, j, self.entry(i, j).render()))
        return "\n".join(lines)

    @classmethod
    def deserialize(cls, text, p):
        lines = [ln for ln in text.splitlines() if ln.strip()]
        fields = {}
        entries = {}
        for ln in lines:
            key, _, value = ln.partition(":")
            key, value = key.strip(), value.strip()
            if key.startswith("m["):
                i, j = key[2:-1].split("]["); entries[(int(i), int(j))] = value
            else:
                fields[key] = value
        dm = DegreeMatrix(
            [int(x) for x in fields["gen_degrees"].split(",")], int(fields["socle"])
        )
        # serialize() writes the size and every upper entry, zeros too
        n = int(fields["size"])
        if n != dm.size or set(entries) != {
            (i, j) for i in range(n) for j in range(i + 1, n)
        }:
            raise ValueError("matrix block needs size %d and every m[i][j], i < j" % dm.size)
        upper = {
            key: MultiPoly.parse(value, p) for key, value in entries.items()
        }
        return cls(dm, upper, p)

    def __eq__(self, other):
        return isinstance(other, SkewPolyMatrix) and (
            self.p == other.p
            and self.degree_matrix == other.degree_matrix
            and self.upper == other.upper
        )


def _pfaffian(matrix_entry, indices, cache, p):
    """Pfaffian of the skew submatrix on the given sorted index tuple."""
    if not indices:
        return MultiPoly.constant(1, p)
    if indices in cache:
        return cache[indices]
    a = indices[0]
    rest = indices[1:]
    total = MultiPoly.zero(p)
    for pos, b in enumerate(rest):
        f = matrix_entry(a, b)
        if f.is_zero():
            continue
        sub = tuple(x for x in rest if x != b)
        term = f * _pfaffian(matrix_entry, sub, cache, p)
        total = total + term if pos % 2 == 0 else total - term
    cache[indices] = total
    return total


def pfaffian(M):
    """Pfaffian of an even-size SkewPolyMatrix."""
    if M.size % 2:
        raise ValueError("Pfaffian needs even size")
    return _pfaffian(M.entry, tuple(range(M.size)), {}, M.p)


def submaximal_pfaffians(M):
    """Signed Pfaffians of the principal minors deleting one row/column.

    The i-th output is (-1)^i * Pf(M with row and column i removed); with
    these signs the matrix annihilates the vector of Pfaffians.
    """
    n = M.size
    if n % 2 == 0:
        raise ValueError("sub-maximal Pfaffians need odd size")
    cache = {}
    out = []
    all_idx = tuple(range(n))
    for i in range(n):
        sub = tuple(x for x in all_idx if x != i)
        pf = _pfaffian(M.entry, sub, cache, M.p)
        out.append(pf if i % 2 == 0 else -pf)
    return out


def random_gorenstein(h, p, stream):
    """Random skew matrix with the generic degree layout, plus its ideal.

    Draws uniformly random homogeneous entries (degree-zero slots stay
    zero, keeping the presentation minimal), takes the Pfaffian ideal,
    and checks that the h-vector came out right; degenerate draws are
    retried up to MATRIX_RETRIES times.
    """
    dm = generic_degree_matrix(h)
    target = _entries(h)
    for attempt in range(MATRIX_RETRIES):
        st = stream.child("draw", attempt)
        upper = {}
        for i in range(dm.size):
            for j in range(i + 1, dm.size):
                deg = dm.entry_degree(i, j)
                if deg >= 1:
                    terms = {
                        m: st.below(p) for m in monomials_of_degree(deg)
                    }
                    upper[(i, j)] = MultiPoly(terms, p)
        M = SkewPolyMatrix(dm, upper, p)
        gens = [f for f in submaximal_pfaffians(M) if not f.is_zero()]
        if len(gens) < dm.size:
            continue
        ideal = groebner(gens, p)
        try:
            if h_vector(ideal) == target:
                return M, ideal
        except ValueError:
            pass
    raise DegeneracyError(
        "no Gorenstein scheme with h-vector %r after %d draws" % (target, MATRIX_RETRIES)
    )


# ---------------------------------------------------------------------------
# projection to a line


class ProjectionWitness(Frozen):
    """A projection certificate: dehomogenizer x_h, direction ell, factor."""

    __slots__ = ("ell", "xh", "char_poly", "factor")

    def __init__(self, ell, xh, char_poly, factor):
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "xh", xh)
        object.__setattr__(self, "char_poly", char_poly)
        object.__setattr__(self, "factor", factor)


def _random_linear(stream, p):
    while True:
        coeffs = [stream.below(p) for _ in range(4)]
        if any(coeffs):
            return MultiPoly.linear_form(coeffs, p)


def multiplication_operator(ideal, ell, xh, sigma0):
    """Matrix of multiplication by ell/x_h on the stable graded piece.

    Row-vector convention: coordinates map through v -> v @ T.  Requires
    multiplication by x_h from degree sigma0 to sigma0+1 to be bijective,
    and raises BadPositionError otherwise.  At the stable degree sigma0
    this is exactly the test that x_h is a nonzerodivisor on S/I, which is
    Cohen-Macaulay of dimension 1: a zero-divisor x_h vanishes at a point
    of the scheme, and its annihilator (I : x_h)/I is nonzero in every
    degree from sigma0 on, because the residual scheme of I : x_h has
    smaller degree.
    """
    p = ideal.p
    L = ideal.mult_matrix(ell, sigma0)
    X = ideal.mult_matrix(xh, sigma0)
    n = L.shape[0]
    aug = np.concatenate([X, np.eye(n, dtype=np.int64)], axis=1)
    R, pivots = rref(aug, p)
    if pivots[:n] != list(range(n)):
        raise BadPositionError("x_h is not invertible on the stable piece")
    Xinv = R[:, n:]
    return _safe_matmul(L, Xinv, p)


def _projection_char_poly(ideal, ell, xh):
    """Characteristic polynomial of ell/x_h on the stable piece of S/I."""
    T = multiplication_operator(ideal, ell, xh, ideal.stable_degree()[0])
    return UniPoly(charpoly_mod_p(T, ideal.p), ideal.p)


def char_poly_of_projection(ideal, stream):
    """Random projection of the scheme to a line.

    Picks a dehomogenizer x_h and a direction ell, and returns (ell, x_h,
    characteristic polynomial of ell/x_h).  A zero-divisor x_h, one that
    meets the scheme, is caught by multiplication_operator and redrawn, up
    to DEHOMOGENIZER_RETRIES times; each try draws from its own child
    stream, so a redraw moves no later draw.
    """
    for attempt in range(DEHOMOGENIZER_RETRIES):
        st = stream.child("proj", attempt)
        xh = _random_linear(st, ideal.p)
        ell = _random_linear(st, ideal.p)
        try:
            return ell, xh, _projection_char_poly(ideal, ell, xh)
        except BadPositionError:
            continue
    raise BadPositionError(
        "no dehomogenizing linear form found in %d tries" % DEHOMOGENIZER_RETRIES
    )


def is_reduced_and_split(ideal, d, stream):
    """Search for a projection certifying reducedness and a degree-d split.

    Tries random projections; succeeds when the characteristic polynomial
    is square-free (so the scheme is reduced and the projection separates
    points) and a factor of degree d exists.  Returns a ProjectionWitness
    or None; None only means this search failed, not a refutation.
    """
    for attempt in range(PROJECTION_RETRIES):
        try:
            ell, xh, f = char_poly_of_projection(ideal, stream.child(attempt))
        except BadPositionError:
            continue
        try:
            fd = find_factor_of_degree(f, d)
        except NotSquarefreeError:
            # could be a non-reduced scheme or a direction merging two
            # points; only another projection can tell, so retry
            continue
        # square-free means the factor degrees are the residue-field
        # degrees of the points of G; no other projection can change them
        return ProjectionWitness(ell, xh, f, fd) if fd is not None else None
    return None


def witness_splits(ideal, witness, d):
    """Does a stored witness certify a reduced scheme with a degree-d part?

    Recomputes the characteristic polynomial of ell/x_h and requires it to
    be square-free and the stored factor to be a monic degree-d divisor.
    """
    try:
        f = _projection_char_poly(ideal, witness.ell, witness.xh)
    except BadPositionError:
        return False
    fd = witness.factor
    return (
        is_squarefree(f)
        and fd.degree == d
        and fd.is_monic()
        and gcd_degree(f, fd) == d
    )


# ---------------------------------------------------------------------------
# subscheme extraction and residuals (degreewise linear algebra)


def _poly_power(f, m):
    out = MultiPoly.constant(1, f.p)
    for _ in range(m):
        out = out * f
    return out


class _PieceCollector:
    """Collects ideal generators degree by degree above a base ideal.

    Feed it, for each degree t = 0, 1, ..., a basis (rows of
    standard-monomial coordinates) of the target ideal's piece modulo the
    base ideal; it keeps the members not already generated by earlier
    pieces, and the echelonized piece of the target ideal itself.
    """

    def __init__(self, base):
        self.base = base
        self.p = base.p
        self.prev_rows = np.zeros((0, 1), dtype=np.int64)  # dense rows fed at t - 1
        self.generators = []
        self.pieces = {}

    def ideal(self):
        """The target ideal, with every piece fed so far already in place."""
        gens = self.base.gens + tuple(self.generators)
        return GradedSpaces(gens, self.p, self.pieces)

    def add_degree(self, t, coord_rows):
        p = self.p
        monos = monomials_of_degree(t)
        base_R, base_piv, std = self.base.piece(t)

        def poly(row):
            return MultiPoly({monos[i]: int(c) for i, c in enumerate(row) if c}, p)

        # the previous piece times each variable
        prev = self.prev_rows
        table = product_positions(t - 1, 1)
        rows = np.zeros((NVARS * len(prev), len(monos)), dtype=np.int64)
        for v in range(NVARS):
            rows[v * len(prev) : (v + 1) * len(prev)][:, table[:, v]] = prev
        span, span_piv = rref(reduce_rows(rows, base_R, base_piv, p), p)
        dense = np.zeros((len(coord_rows), len(monos)), dtype=np.int64)
        dense[:, std] = np.asarray(coord_rows, dtype=np.int64) % p
        self.pieces[t] = with_std(*extend_rref(base_R, base_piv, dense, p))
        keep, _ = rref(reduce_rows(dense, span, span_piv, p), p)
        self.generators.extend(poly(row) for row in keep)
        self.prev_rows = dense


def _matrix_poly(coeffs, A, p):
    """Evaluate a univariate polynomial at a square matrix (Horner)."""
    n = A.shape[0]
    out = np.zeros((n, n), dtype=np.int64)
    for c in reversed(coeffs):
        out = _safe_matmul(out, A, p)
        if c % p:
            out = (out + (c % p) * np.eye(n, dtype=np.int64)) % p
    return out


def extract_subscheme(ideal, ell, xh, f_d):
    """Ideal of the subscheme the degree-d factor cuts out.

    Equals (I_G + (F_d)) : x_h^infinity with F_d the x_h-homogenization of
    f_d(ell/x_h); computed degreewise instead: a degree-t form g lies in
    I_X iff the coordinates of g * x_h^(sigma0 - t) on the stable piece
    fall in the row space of f_d(T).  Raises ExtractionError when the
    resulting degree disagrees with deg f_d.
    """
    p = ideal.p
    d = f_d.degree
    sigma0, n = ideal.stable_degree()
    if d == 0:
        return groebner([MultiPoly.constant(1, p)], p)
    if d == n:
        return ideal
    if d > n:
        raise ValueError("factor degree exceeds the scheme degree")
    T = multiplication_operator(ideal, ell, xh, sigma0)
    W = _matrix_poly([c % p for c in f_d.coeffs], T, p)
    RW, pivW = rref(W, p)
    if len(pivW) != n - d:
        raise ExtractionError(
            "factor image has rank %d, expected %d" % (len(pivW), n - d)
        )
    collector = _PieceCollector(ideal)
    hf_hist = []
    cap = sigma0 + n + 2
    t = 0
    while True:
        if t <= sigma0:
            # push degree-t forms into the stable piece and compare with W
            push = ideal.mult_matrix(_poly_power(xh, sigma0 - t), t)
            residual_map = reduce_rows(push, RW, pivW, p)
        else:
            # above the stable degree the vanishing space is W moved up by x_h
            step = ideal.mult_matrix(_poly_power(xh, t - sigma0), sigma0)
            RW_t, pivW_t = rref(_safe_matmul(W, step, p), p)
            residual_map = reduce_rows(
                np.eye(ideal.hf(t), dtype=np.int64), RW_t, pivW_t, p
            )
        kernel = kernel_basis_array(residual_map.T, p)
        collector.add_degree(t, kernel)
        hf_hist.append(ideal.hf(t) - len(kernel))
        if _points_hf_done(hf_hist, d):
            break
        if t > cap:
            raise ExtractionError("subscheme pieces did not stabilize")
        t += 1
    ideal_x = collector.ideal()
    if ideal_x.scheme_degree() != d:
        raise ExtractionError("extracted subscheme has the wrong degree")
    return ideal_x


def _points_hf_done(hist, expected):
    """Stop once the quotient Hilbert function sits at the expected degree
    for two consecutive degrees plus one safety degree."""
    if len(hist) < 3:
        return False
    return hist[-1] == hist[-2] == hist[-3] == expected


def point_ideal_quotient(ideal, other_gens):
    """I : J for the ideal I of a zero-scheme cone, degreewise.

    I must equal its own saturation.  Then the quotient does too and is
    Cohen-Macaulay of dimension <= 1, so its Hilbert function stabilizes
    and generators live below the stabilization degree plus one; the loop
    runs two degrees further as a consistency window.  Generators of J
    that already lie in I do not change the quotient and are skipped.
    """
    p = ideal.p
    gens_j = [g for g in other_gens if not g.is_zero()]
    if not gens_j:
        raise ValueError("quotient by the zero ideal")
    if any(g.degree == 0 for g in gens_j):
        return ideal
    gens_j = [g for g in gens_j if not ideal.contains(g)]
    if not gens_j:
        return groebner([MultiPoly.constant(1, p)], p)
    sigma0, n = ideal.stable_degree()
    collector = _PieceCollector(ideal)
    hist = []
    cap = sigma0 + n + 2
    t = 0
    while True:
        blocks = [ideal.mult_matrix(f, t) for f in gens_j]
        stacked = np.concatenate(blocks, axis=1)
        kernel = kernel_basis_array(stacked.T, p)
        if t == 0 and len(kernel):
            return groebner([MultiPoly.constant(1, p)], p)
        collector.add_degree(t, kernel)
        hist.append(ideal.hf(t) - len(kernel))
        if len(hist) >= 3 and hist[-1] == hist[-2] == hist[-3]:
            break
        if t > cap:
            raise RuntimeError("quotient pieces did not stabilize")
        t += 1
    return collector.ideal()


def residual(ideal_g, ideal_x):
    """I_Y = I_G : I_X, the ideal of the residual subscheme."""
    if not all(ideal_x.contains(g) for g in ideal_g.gens):
        raise ValueError("residual needs I_G contained in I_X")
    return point_ideal_quotient(ideal_g, list(ideal_x.gens))
