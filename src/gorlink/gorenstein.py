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
intersection (2,2,4) behind {1,3,4,4,3,1}).  The Pfaffians are computed
on dense coefficient vectors, one level of the Laplace expansion at a
time, each level's products batched into one indexed accumulation per
pair of degrees (see submaximal_pfaffians).

Reducedness and splitting are tested by projecting: the characteristic
polynomial of multiplication by ell/x_h on the degree-stable graded
piece of S/I_G is the polynomial of the image scheme on a line; a
square-free value certifies that G is reduced, and a degree-d factor
cuts out a degree-d subscheme defined over GF(p).

The subscheme is extracted as a gorlink.groebner.SubIdeal over I_G,
pulled back along x_h from the row space of W = f_d(T), T the
multiplication operator, which is exactly the space of functions on G
vanishing along X: a form of degree t lies in I_X iff its normal form
times x_h^(sigma0 - t) falls in it.  The result equals I_G + (homogenized
factor) with x_h divided out (the saturation by x_h) and is verified
through its postconditions (the rank of W, and the degree).  The residual
Y is pulled back in the same way, along the same x_h, from the left kernel
of W (see residual).  T = mult(ell) mult(x_h)^-1 on the stable piece
(S/I_G)_sigma0, the inverse held on I_G per x_h; that it exists is the
check that x_h is a nonzerodivisor on S/I_G.

The liaison involution I_G : I_Y = I_X then holds with nothing left to
check, once f = f_d f_e is square-free.  A = (S/I_G)_sigma0 is the ring of
functions on G, of dimension n = deg G, and T acts on it by
multiplication by ell/x_h.  A square-free f is the minimal polynomial of
T, so 1, T, ..., T^(n-1) are independent and A = F_p[T] = F_p[t]/(f).  In
that ring the row space of f_d(T), (I_X/I_G)_sigma0, is the ideal (f_d),
and its left kernel, (I_Y/I_G)_sigma0, is ann(f_d) = (f_e).  As I_G is
saturated and x_h a nonzerodivisor on S/I_G, g in A kills I_Y modulo I_G
iff it kills (I_Y/I_G)_sigma0 in A, so the sigma0 piece of I_G : I_Y is
ann((f_e)) = (f_d), f_d and f_e being coprime: the sigma0 piece of I_X.
x_h is a nonzerodivisor on S/(I_G : I_Y), whose associated primes lie
among those of S/I_G, and on S/I_X, so both ideals are pulled back from
their sigma0 pieces (see gorlink.groebner), and they are equal.  This is
geometric linkage: G = X u Y is reduced and X, Y share no point
(Kleppe, Migliore, Miro-Roig, Nagel and Peterson, Mem. AMS 732, 2001).
The facts the proof rests on are checked: f is square-free (in the search
and in witness_splits), W has rank n - d and I_X and I_Y the degrees d
and n - d (_vanishing_ideal), and I_X/I_G and I_Y/I_G form a direct sum
(gorlink.tangent.hom_dim_zero).  Only the tests take the colon, by
point_ideal_quotient (the colon in the stable degree) and by references.

I_G is a gorlink.groebner.GradedSpaces, built once per attempt; every
ideal made after the split contains it and is a SubIdeal over it, whose
pieces span at most n = deg G standard monomials of S/I_G per degree.
"""

import numpy as np

from ._frozen import Frozen
from .gf import _left_kernel, _reduce, _safe_matmul, charpoly_mod_p, check_modulus
from .mpoly import NVARS, MultiPoly, monomial_count, product_positions
from .groebner import SubIdeal, groebner, has_h_vector
from .hvectors import parse_gorenstein_type, _entries
from .unipoly import NotSquarefreeError, UniPoly, find_factor_of_degree, squarefree_gcd_degree

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
                if f.degree != expected:
                    raise ValueError("entry (%d,%d) must have degree %d" % (i, j, expected))
                table[(i, j)] = f
        object.__setattr__(self, "degree_matrix", degree_matrix)
        object.__setattr__(self, "upper", table)
        object.__setattr__(self, "p", p)

    @property
    def size(self):
        return self.degree_matrix.size

    def serialize(self):
        n = self.size
        lines = ["size: %d" % n,
                 "gen_degrees: %s" % ",".join(map(str, self.degree_matrix.gen_degrees)),
                 "socle: %d" % self.degree_matrix.socle_degree]
        zero = MultiPoly.zero(self.p)
        for i in range(n):
            for j in range(i + 1, n):
                lines.append("m[%d][%d]: %s" % (i, j, self.upper.get((i, j), zero).render()))
        return "\n".join(lines)

    @classmethod
    def deserialize(cls, text, p, max_degree):
        """The matrix a serialize() block writes.  Entry degrees above
        max_degree are refused before any entry is parsed, and each entry
        is parsed at its degree, so a forged exponent costs no memory."""
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
        if n != dm.size or len(entries) != n * (n - 1) // 2 or not all(
            0 <= i < j < n for i, j in entries
        ):
            raise ValueError("matrix block needs size %d and every m[i][j], i < j" % dm.size)
        if any(dm.entry_degree(i, j) > max_degree for i, j in entries):
            raise ValueError("matrix entries have degree at most %d" % max_degree)
        upper = {
            (i, j): MultiPoly.parse(value, p, dm.entry_degree(i, j))
            for (i, j), value in entries.items()
        }
        return cls(dm, upper, p)


def submaximal_pfaffians(M):
    """Signed Pfaffians of the principal minors deleting one row/column.

    The i-th output is (-1)^i * Pf(M with row and column i removed); with
    these signs the matrix annihilates the vector of Pfaffians.

    The Laplace expansion along a = min S, Pf(S) = sum over b of
    +-M[a, b] * Pf(S - {a, b}), reaches sorted index sets S through the
    nonzero entries.  Pf(S), of degree |S|/2 * sigma - sum of g_i over S,
    is held as its vector over monomials_of_degree, as the entries are.  The
    sets are computed by size from the empty set up: each level groups its
    terms by (entry degree u, minor degree v), reduces their outer products
    mod p and adds them into the product coefficients at
    product_positions(u, v); the sums of residues below 2^31 stay far below
    2^63.
    """
    n = M.size
    if n % 2 == 0:
        raise ValueError("sub-maximal Pfaffians need odd size")
    p, dm = M.p, M.degree_matrix

    def degree(S):
        return len(S) // 2 * dm.socle_degree - sum(dm.gen_degrees[i] for i in S)

    # (i, j): the degree of M[i, j], and its vector and its negative's
    entries = {key: (f.degree, (f.coeffs, -f.coeffs % p)) for key, f in M.upper.items()}
    tops = [tuple(x for x in range(n) if x != i) for i in range(n)]
    levels = [set(tops)]  # the index sets the expansion reaches, by size
    for _ in range(n // 2):
        levels.append({
            tuple(x for x in S[1:] if x != b)
            for S in levels[-1] for b in S[1:] if (S[0], b) in entries
        })
    pf = {(): np.ones(1, dtype=np.int64)}
    for level in reversed(levels[:-1]):
        sets, groups = {}, {}  # sets[w]: the sets of degree w; groups[u, v]: terms
        for S in level:
            w = degree(S)
            row = len(sets.setdefault(w, []))
            sets[w].append(S)
            a, rest = S[0], S[1:]
            for pos, b in enumerate(rest):
                if (a, b) in entries:
                    u, signed = entries[a, b]
                    minor = pf[tuple(x for x in rest if x != b)]
                    if len(minor):
                        groups.setdefault((u, w - u), []).append((row, signed[pos % 2], minor))
        acc = {w: np.zeros((len(S), monomial_count(w)), dtype=np.int64) for w, S in sets.items()}
        for (u, v), terms in groups.items():
            rows, E, F = zip(*terms)
            outer = _reduce(np.array(E)[:, :, None] * np.array(F)[:, None, :], p)
            np.add.at(acc[u + v], (np.array(rows)[:, None, None], product_positions(u, v)), outer)
        for w, S in sets.items():
            pf.update(zip(S, _reduce(acc[w], p)))
    return [MultiPoly(degree(S), pf[S] if i % 2 == 0 else -pf[S], p) for i, S in enumerate(tops)]


def random_gorenstein(h, p, stream):
    """Random skew matrix with the generic degree layout, plus its ideal.

    Draws uniformly random homogeneous entries (degree-zero slots stay
    zero, keeping the presentation minimal), takes the Pfaffian ideal,
    and checks that the h-vector came out right; degenerate draws are
    retried up to MATRIX_RETRIES times.  A modulus that is not an odd prime
    below 2^31 raises ValueError before any draw.
    """
    check_modulus(p)
    dm = generic_degree_matrix(h)
    target = _entries(h)
    for attempt in range(MATRIX_RETRIES):
        st = stream.child("draw", attempt)
        upper = {}
        for i in range(dm.size):
            for j in range(i + 1, dm.size):
                deg = dm.entry_degree(i, j)
                if deg >= 1:
                    coeffs = [st.below(p) for _ in range(monomial_count(deg))]
                    upper[(i, j)] = MultiPoly(deg, coeffs, p)
        M = SkewPolyMatrix(dm, upper, p)
        gens = [f for f in submaximal_pfaffians(M) if not f.is_zero()]
        if len(gens) < dm.size:
            continue
        ideal = groebner(gens, p)
        if has_h_vector(ideal, target):
            return M, ideal
    raise DegeneracyError(
        "no Gorenstein scheme with h-vector %r after %d draws" % (target, MATRIX_RETRIES)
    )


# ---------------------------------------------------------------------------
# projection to a line


class ProjectionWitness(Frozen):
    """A projection certificate: dehomogenizer x_h, direction ell, factor."""

    __slots__ = ("ell", "xh", "factor")

    def __init__(self, ell, xh, factor):
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "xh", xh)
        object.__setattr__(self, "factor", factor)


def _random_linear(stream, p):
    while True:
        coeffs = [stream.below(p) for _ in range(4)]
        if any(coeffs):
            return MultiPoly.linear_form(coeffs, p)


def multiplication_operator(ideal, ell, xh):
    """Matrix of multiplication by ell/x_h on the stable graded piece.

    Row-vector convention: coordinates map through v -> v @ T.  Requires
    multiplication by x_h from degree sigma0 to sigma0+1 to be bijective,
    and raises BadPositionError otherwise.  At the stable degree sigma0
    this is exactly the test that x_h is a nonzerodivisor on S/I, which is
    Cohen-Macaulay of dimension 1: a zero-divisor x_h vanishes at a point
    of the scheme, and its annihilator (I : x_h)/I is nonzero in every
    degree from sigma0 on, because the residual scheme of I : x_h has
    smaller degree.  T is mult(ell) mult(x_h)^-1, the inverse held on the
    ideal per x_h (GradedSpaces.stable_inverse), so the projection and
    extraction build it once.
    """
    inverse = ideal.stable_inverse(xh)
    if inverse is None:
        raise BadPositionError("x_h is not invertible on the stable piece")
    return _safe_matmul(ideal.mult_matrix(ell, ideal.stable_degree()[0]), inverse, ideal.p)


def _projection_char_poly(ideal, ell, xh):
    """Characteristic polynomial of ell/x_h on the stable piece of S/I."""
    return UniPoly(charpoly_mod_p(multiplication_operator(ideal, ell, xh), ideal.p), ideal.p)


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
        return ProjectionWitness(ell, xh, fd) if fd is not None else None
    return None


def witness_splits(ideal, witness, d):
    """Does a stored witness certify a reduced scheme with a degree-d part?

    Recomputes the characteristic polynomial of ell/x_h and requires it to
    be square-free and the stored factor to be a monic degree-d divisor;
    one Euclid over (f, f') and (f, factor) answers both.
    """
    try:
        f = _projection_char_poly(ideal, witness.ell, witness.xh)
    except BadPositionError:
        return False
    fd = witness.factor
    if fd.degree != d or not fd.is_monic():
        return False
    squarefree, common = squarefree_gcd_degree(f, fd)
    return squarefree and common == d


# ---------------------------------------------------------------------------
# subscheme extraction and residuals (degreewise linear algebra)


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
    """Ideal of the subscheme the degree-d factor cuts out, over I_G.

    Equals (I_G + (F_d)) : x_h^infinity, F_d the x_h-homogenization of
    f_d(ell/x_h): the SubIdeal pulled back along x_h from the row space of
    W = f_d(T) on the stable piece, T the multiplication operator.  W
    commutes with multiplication by every x_i/x_h, as T = ell/x_h does,
    so its row space is invariant under them, as a SubIdeal needs.  I_X
    keeps W as `factor_image`: the left kernel ker f_d(T) = im f_e(T), for
    a square-free f = f_d f_e (so coprime factors), cuts out Y in residual.
    d = 0 gives W = 1 and the unit ideal, d = deg G gives W = f(T) = 0 and
    I_G.  Raises ValueError for d > deg G, and ExtractionError when W's
    rank or the resulting degree disagrees with d.
    """
    if f_d.degree > ideal.scheme_degree():
        raise ValueError("factor degree exceeds the scheme degree")
    p = ideal.p
    T = multiplication_operator(ideal, ell, xh)
    W = _matrix_poly([c % p for c in f_d.coeffs], T, p)
    ideal_x = _vanishing_ideal(ideal, xh, W, f_d.degree)
    ideal_x.factor_image = W
    return ideal_x


def residual(ideal_g, ideal_x):
    """I_Y, the rest of G, from the I_X that extract_subscheme returned.

    T's char poly f = f_d f_e is square-free, so f_d and f_e are coprime and
    V = ker f_d(T) (+) ker f_e(T); f_d(T) f_e(T) = f(T) = 0 then gives
    ker f_d(T) = im f_e(T): the functions vanishing along Y are the left
    kernel of I_X's W, with no cofactor, char poly or colon.  That kernel
    is invariant under every x_i/x_h, as W's row space is.  Raises
    ValueError for an ideal_x without a factor_image from ideal_g.
    """
    if getattr(ideal_x, "base", None) is not ideal_g or not hasattr(ideal_x, "factor_image"):
        raise ValueError("residual needs an I_X that extract_subscheme took from I_G")
    vanishing, _ = _left_kernel(ideal_x.factor_image, ideal_g.p)
    degree = ideal_g.scheme_degree() - len(vanishing)
    return _vanishing_ideal(ideal_g, ideal_x.xh, vanishing, degree)


def _vanishing_ideal(ideal, xh, V, degree):
    """The ideal of the degree-`degree` subscheme along which the rows of V
    vanish: the SubIdeal pulled back from their row space, whose rank must
    be n - degree and whose scheme must have that degree."""
    sub = SubIdeal(ideal, xh, V)
    sigma0, n = ideal.stable_degree()
    rank = len(sub.relative(sigma0)[1])
    if rank != n - degree:
        raise ExtractionError("factor image has rank %d, expected %d" % (rank, n - degree))
    if sub.scheme_degree() != degree:
        raise ExtractionError("extracted subscheme has the wrong degree")
    return sub


def point_ideal_quotient(ideal, other_gens, xh):
    """((I : J)/I) in the stable degree sigma0 of I, as the RREF (R, pivots)
    over I's standard monomials; J is generated by other_gens.

    I must be saturated with x_h a nonzerodivisor on S/I, which the
    inverse of x_h checks (BadPositionError otherwise).  Then x_h is a
    nonzerodivisor on S/(I : J) too, whose associated primes lie among
    those of S/I, and x_h^k maps (S/I)_sigma0 onto (S/I)_(sigma0 + k).  So
    a g in (S/I)_sigma0 kills a generator y of degree k exactly when
    g * y / x_h^k, which is g @ y(T_0, ..., T_3), is 0: the piece is the
    left kernel of the block row [y_1(T) | y_2(T) | ...], one y(T) per
    generator.  A y in I has y(T) = 0 and adds no block.  T_v = x_v/x_h is
    multiplication_operator(ideal, x_v, xh).

    The operators m(T) of the monomials are built level by level, m' x_v
    from m'(T) T_v (the T_v commute), in one stacked product per variable
    per level, up to one degree below the highest generator.  The
    generators of degree k + 1 are contracted with level k: y(T) is the sum
    over v of y_v(T) T_v, where y_v sums c_m m' over the terms c_m m of y
    whose first factorization is m' x_v.

    The piece decides the whole colon, pulled back from it along x_h (see
    gorlink.groebner).  The search and replay take no colon (see the module
    docstring); the tests check the liaison involution with this one.
    """
    gens = {}
    for g in other_gens:
        if not g.is_zero():
            gens.setdefault(g.degree, []).append(g.coeffs)
    if not gens:
        raise ValueError("quotient by the zero ideal")
    p = ideal.p
    T = [multiplication_operator(ideal, MultiPoly.linear_form(e, p), xh)
         for e in np.eye(NVARS, dtype=np.int64)]
    n = len(T[0])
    if 0 in gens:  # J is the unit ideal, and I : J is I
        return np.zeros((0, n), dtype=np.int64), []
    level = np.eye(n, dtype=np.int64)[None]  # m(T) for the monomials m of degree k
    blocks = []
    for k in range(max(gens)):
        # monomial i of degree k + 1 is x_var[i] times monomial row[i] of
        # degree k, its first factorization in product_positions(k, 1)
        row, var = np.divmod(np.unique(product_positions(k, 1), return_index=True)[1], NVARS)
        if k + 1 in gens:
            split = np.zeros((NVARS, len(gens[k + 1]), len(level)), dtype=np.int64)
            split[var, :, row] = np.array(gens[k + 1]).T
            flat = level.reshape(len(level), n * n).astype(np.float64)
            Y = sum(
                _safe_matmul(_safe_matmul(split[v], flat, p).reshape(-1, n, n), T[v], p)
                for v in range(NVARS)
            )
            blocks += [y for y in _reduce(Y, p) if y.any()]
        if k + 1 < max(gens):
            nxt = np.empty((len(row), n, n), dtype=np.int64)
            for v in range(NVARS):
                at = var == v
                nxt[at] = _safe_matmul(level[row[at]], T[v], p)
            level = nxt
    if not blocks:
        return np.eye(n, dtype=np.int64), list(range(n))
    return _left_kernel(np.concatenate(blocks, axis=1), p)
