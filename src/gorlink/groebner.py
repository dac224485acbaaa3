"""Homogeneous ideals in GF(p)[x0..x3] as degreewise linear algebra.

An ideal is held as its generators plus, for each degree t, the echelon
form of its graded piece I_t: the row space that the products of the
generators with the degree-(t - deg g) monomials span, over the degree-t
monomials in descending grevlex order.  This is the Macaulay-matrix view
of a Groebner basis (Lazard 1983; Faugere's F4, 1999): the pivots of the
reduced echelon form are the leading monomials of I_t, reduction against
it is the normal form, and the non-pivot columns are the standard
monomials.  The reduced echelon form of a row space is unique, so two
generating sets of one ideal give the same pieces.  A generator is a form
(gorlink.mpoly.MultiPoly), whose coefficient vector is already a row over
the monomials of its degree, so the generator rows of a piece are those
vectors stacked.

Pieces are built lazily and cached, so one object per ideal serves every
stage that reads it.  The Hilbert function and the h-vector are read off
the pieces.

An ideal J containing such an ideal I is held as J/I in S/I (SubIdeal):
per degree, the RREF of (J/I)_t over the hf_I(t) standard monomials of I_t,
built when first read from one subspace V of the stable piece
(S/I)_sigma0.  With x_h a nonzerodivisor on S/J (so on S/I), as for the
saturated ideal of points that x_h avoids, c in (S/I)_t lies in J/I iff
c x_h^(sigma0 - t) does, and above sigma0 (J/I)_t = x_h (J/I)_(t-1), x_h
being bijective there on S/I (Eisenbud, The Geometry of Syzygies, 2005,
ch. 4).  J's own generators and full pieces are never formed.

A piece above the lowest generator degree grows from the one below, as
I_t = S_1 I_{t-1} plus the generators of degree t.  The leading monomials
of the multiples are read off before any elimination, as in the symbolic
preprocessing of F4, so most pivots take no pivot search (see
GradedSpaces.piece).

Coordinates in S/I are read off one normal-form table per piece, with no
further elimination.  A reduced echelon form has the identity on its pivot
columns, so a pivot monomial m, leading row r, is congruent mod I_t to
m - r, which lies on the standard monomials alone, and a standard monomial
is its own normal form.  The table N_t stacks these normal forms, one row
per degree-t monomial over the standard monomials, so the coordinates of
any degree-t rows are one product rows @ N_t, and multiplication by f is
N_{t + deg f} gathered at the products of f's terms with each standard
monomial, contracted with f's coefficients (see GradedSpaces.normal_forms).
"""

from itertools import combinations

import numpy as np

from .gf import _left_kernel, _safe_matmul, check_modulus, extend_rref, reduce_rows
from .gf import rref, rref_unit_triangular
from .mpoly import NVARS, monomial_count, monomials_of_degree, product_positions

__all__ = ["groebner", "h_vector", "has_h_vector", "GradedSpaces", "SubIdeal"]

# A piece is a dense matrix over all C(t+3, 3) degree-t monomials, so the
# Hilbert-function scan gives up at degree 20 (1771 monomials).  Every
# candidate h-vector has at most 12 entries, so its cone repeats by degree 12.
MAX_HF_PROBE = 20

_PAIRS = frozenset(frozenset(pair) for pair in combinations(range(NVARS), 2))


class GradedSpaces:
    """A homogeneous ideal: its generators and its echelonized graded pieces.

    For each degree t this holds the row space of I_t over the degree-t
    monomials in descending grevlex order (so echelon pivots are leading
    monomials and reduction against them is the normal form), plus the
    standard-monomial coordinate frame of (S/I)_t.

    Every reader of (S/I) coordinates (mult_matrix, stable_operators and
    stable_pushes) goes through the normal-form table of a piece
    (normal_forms), which the reduced echelon form gives with no
    elimination.
    """

    def __init__(self, gens, p):
        self.gens = tuple(gens)
        self.p = p
        self._pieces = {}
        self._tables = {}
        self._operators = {}
        self._pushes = {}
        self._stable = None

    def piece(self, t):
        """(R, pivots, std_positions) for degree t.

        Up to the lowest generator degree this is the RREF of the
        generators of degree t.  Above it, piece t grows from piece t - 1:
        x_v times a row of piece t - 1 leads with a 1 at x_v times the
        row's pivot, since multiplying by a monomial keeps the monomial
        order, so one such multiple per distinct leading monomial, sorted,
        is a unit triangle (rref_unit_triangular).  The other multiples and
        the generators of degree t are then folded into it (extend_rref).
        An RREF is unique, so the piece equals the RREF of all multiples of
        the generators.
        """
        if t not in self._pieces:
            if t > 0 and any(g.degree < t for g in self.gens):
                R, pivots = self._grow(t)
            else:
                R, pivots = rref(self._generator_rows(t), self.p)
            is_std = np.ones(R.shape[1], dtype=bool)
            is_std[pivots] = False
            self._pieces[t] = R, pivots, is_std.nonzero()[0].tolist()
        return self._pieces[t]

    def _generator_rows(self, t):
        """Coefficient rows of the generators of degree t."""
        rows = [g.coeffs for g in self.gens if g.degree == t]
        return np.array(rows, dtype=np.int64).reshape(len(rows), monomial_count(t))

    def _grow(self, t):
        """RREF of piece t from the RREF of piece t - 1 (see piece)."""
        below, pivots, _ = self.piece(t - 1)
        table = product_positions(1, t - 1)
        width = monomial_count(t)
        # the first (variable, row) pair to reach each leading column
        cols, first = np.unique(table[:, pivots], return_index=True)
        chosen = np.zeros((NVARS, len(pivots)), dtype=bool)
        chosen.flat[first] = True
        var, row = np.divmod(first, len(pivots))
        U = np.zeros((len(first), width), dtype=np.int64)
        U[np.arange(len(first))[:, None], table[var]] = below[row]
        R, piv = rref_unit_triangular(U, cols.tolist(), self.p)
        del U  # not held while the other multiples are folded in
        for v in range(NVARS):
            rest = below[~chosen[v]]
            if len(rest):
                rows = np.zeros((len(rest), width), dtype=np.int64)
                rows[:, table[v]] = rest
                R, piv = extend_rref(R, piv, rows, self.p)
        return extend_rref(R, piv, self._generator_rows(t), self.p)

    def hf(self, t):
        """dim (S/I)_t."""
        if t < 0:
            return 0
        return len(self.piece(t)[2])

    def stable_degree(self):
        """(sigma0, n): the Hilbert function first repeats from sigma0 to
        sigma0 + 1, at the value n, the degree of the scheme.

        Also certifies that S/I has Krull dimension at most one: for every
        pair of variables some leading monomial (a pivot of a piece) lies in
        those two variables alone.  While that certificate is missing after
        the first repeat, the scan goes on and raises if the value moves.
        Raises ValueError when no repeat shows up below MAX_HF_PROBE.
        """
        if self._stable is None:
            missing = set(_PAIRS)
            values = []
            sigma0 = None
            for t in range(MAX_HF_PROBE):
                values.append(self.hf(t))
                monos = monomials_of_degree(t)
                for col in self.piece(t)[1] if missing else ():
                    support = {i for i in range(NVARS) if monos[col][i]}
                    missing = {pair for pair in missing if not support <= pair}
                if sigma0 is None:
                    if t and values[-1] == values[-2]:
                        sigma0 = t - 1
                elif values[-1] != values[-2]:
                    raise ValueError(
                        "Hilbert function leaves its repeated value; "
                        "S/I is not a zero-scheme cone"
                    )
                if sigma0 is not None and not missing:
                    self._stable = (sigma0, values[-1])
                    break
            else:
                raise ValueError("Hilbert function did not stabilize")
        return self._stable

    def scheme_degree(self):
        return self.stable_degree()[1]

    def __repr__(self):
        return "GradedSpaces(%d gens mod %d)" % (len(self.gens), self.p)

    def normal_forms(self, t):
        """N_t: row j holds the coordinates in (S/I)_t of the normal form of
        monomials_of_degree(t)[j], over the standard monomials.

        With the piece (R, pivots, std) in reduced echelon form, a standard
        monomial's row is a unit vector and the monomial at pivots[i] has
        the row -R[i, std], since R[i] is 1 there and 0 on the other
        pivots.  Built once per degree, from the piece alone, and held in
        float64, which holds residues exactly, so that _safe_matmul
        multiplies by it with no conversion.
        """
        if t not in self._tables:
            R, pivots, std = self.piece(t)
            table = np.zeros((monomial_count(t), len(std)))
            table[std, np.arange(len(std))] = 1
            table[pivots] = -R[:, std] % self.p
            self._tables[t] = table
        return self._tables[t]

    def lift(self, rows, t):
        """The forms, over all degree-t monomials, with these coordinates."""
        out = np.zeros((len(rows), monomial_count(t)), dtype=np.int64)
        out[:, self.piece(t)[2]] = rows
        return out

    def mult_matrix(self, f, t):
        """Matrix of multiplication by f: (S/I)_t -> (S/I)_{t + deg f}.

        Shape (hf(t), hf(t + deg f)); row j holds the image coordinates of
        the j-th standard monomial s_j, so images are `coords @ M`.  Row j
        is the sum of c * N_{t + deg f}[m * s_j] over the terms c * m of f:
        the table gathered at the products of f's own terms, contracted
        with f's coefficients in one product.
        """
        nonzero = np.flatnonzero(f.coeffs)
        products = product_positions(t, f.degree)[self.piece(t)[2]][:, nonzero]
        table = self.normal_forms(t + f.degree)
        return _safe_matmul(f.coeffs[nonzero], table[products], self.p)

    def stable_operators(self, xh):
        """(T_0, ..., T_3), stacked in shape (4, n, n): multiplication by
        x_i / x_h on the stable piece (S/I)_sigma0, in the row convention of
        mult_matrix; None when multiplication by the linear form x_h from
        sigma0 to sigma0 + 1 is not bijective.

        T_i = mult(x_i) mult(x_h)^-1, where mult(x_i) is N_{sigma0 + 1}
        gathered at x_i times each standard monomial, and the inverse comes
        from one RREF of [mult(x_h) | 1].  Multiplication by ell / x_h is then
        sum ell_i T_i.  Built once per x_h and held, as the pieces and tables
        are, so one frame serves every reader of the same (I, x_h).
        """
        key = xh.coeffs.tobytes()
        if key not in self._operators:
            sigma0, n = self.stable_degree()
            X = self.mult_matrix(xh, sigma0)
            R, pivots = rref(np.concatenate([X, np.eye(n, dtype=np.int64)], axis=1), self.p)
            T = None
            if pivots[:n] == list(range(n)):
                products = product_positions(sigma0, 1)[self.piece(sigma0)[2]]
                L = self.normal_forms(sigma0 + 1)[products].transpose(1, 0, 2)
                T = _safe_matmul(L.astype(np.int64), R[:, n:], self.p)
            self._operators[key] = T
        return self._operators[key]

    def stable_pushes(self, xh):
        """_xh_pushes(self, xh, sigma0), held per x_h as stable_operators
        is, so the SubIdeals pulled back along one x_h share it."""
        key = xh.coeffs.tobytes()
        if key not in self._pushes:
            self._pushes[key] = _xh_pushes(self, xh, self.stable_degree()[0])
        return self._pushes[key]


def _xh_pushes(ideal, xh, top):
    """Multiplication by x_h^(top - t) from (S/I)_t into (S/I)_top, for
    t = 0..top: a chain of the one-step maps of x_h, from the top down."""
    pushes = [np.eye(ideal.hf(top), dtype=np.int64)]
    for s in range(top - 1, -1, -1):
        pushes.append(_safe_matmul(ideal.mult_matrix(xh, s), pushes[-1], ideal.p))
    return pushes[::-1]


class SubIdeal:
    """An ideal J containing a GradedSpaces ideal I, its base, held as J/I
    and pulled back along x_h from the row space of V in (S/I)_sigma0.

    x_h must be a nonzerodivisor on S/I and row V invariant under each
    T_i = x_i / x_h (stable_operators), so that J is an ideal.
    relative(t), the RREF of (J/I)_t, is RREF(V) at sigma0; below it one
    left kernel of the push x_h^(sigma0 - t) (stable_pushes) reduced against
    RREF(V), above it the RREF of x_h times the piece below, each built when
    first read.  J's Hilbert function is the base's less their ranks.
    """

    def __init__(self, base, xh, V):
        self.base = base
        self.xh = xh
        self.p = base.p
        self._image = rref(V, base.p)
        self._pieces = {}
        self._stable = None

    def relative(self, t):
        """(R, pivots) of (J/I)_t."""
        if t not in self._pieces:
            base, p = self.base, self.p
            sigma0 = base.stable_degree()[0]
            if t == sigma0:
                self._pieces[t] = self._image
            elif t < sigma0:
                push = base.stable_pushes(self.xh)[t]
                self._pieces[t] = _left_kernel(reduce_rows(push, *self._image, p), p)
            else:
                below = _safe_matmul(self.relative(t - 1)[0], base.mult_matrix(self.xh, t - 1), p)
                self._pieces[t] = rref(below, p)
        return self._pieces[t]

    def hf(self, t):
        """dim (S/J)_t."""
        return self.base.hf(t) - len(self.relative(t)[1]) if t >= 0 else 0

    def stable_degree(self):
        """As GradedSpaces.stable_degree; the base's certificate of Krull
        dimension <= 1 holds for its quotient S/J, so the first repeat ends it."""
        if self._stable is None:
            self.base.stable_degree()
            t = next((t for t in range(1, MAX_HF_PROBE) if self.hf(t) == self.hf(t - 1)), None)
            if t is None:
                raise ValueError("Hilbert function did not stabilize")
            self._stable = (t - 1, self.hf(t))
        return self._stable

    scheme_degree = GradedSpaces.scheme_degree


def groebner(gens, p=None):
    """The ideal the given forms generate."""
    polys = [g for g in gens if not g.is_zero()]
    if p is None:
        if not polys:
            raise ValueError("cannot infer modulus from an empty generator list")
        p = polys[0].p
    check_modulus(p)
    for g in polys:
        if g.p != p:
            raise ValueError("mixed moduli")
    return GradedSpaces(polys, p)


def h_vector(ideal):
    """First difference of the Hilbert function of a dimension-one cone.

    Returns a tuple of positive integers summing to the degree of the
    scheme; () for the unit ideal.  Raises ValueError if S/I is not a
    zero-scheme cone.
    """
    sigma0, _ = ideal.stable_degree()
    values = [ideal.hf(t) for t in range(sigma0 + 2)]
    diffs = [values[0]] + [values[i] - values[i - 1] for i in range(1, len(values))]
    while diffs and diffs[-1] == 0:
        diffs.pop()
    if any(d <= 0 for d in diffs):
        raise ValueError("Hilbert function not monotone; not a reduced cone ideal")
    return tuple(diffs)


def has_h_vector(ideal, h):
    """Is S/I a zero-scheme cone with h-vector h?  HF(S/I, t) must be the
    sum h_0 + ... + h_t for t <= len(h): those degrees are compared first,
    up to the first difference, and only if all agree does h_vector scan."""
    total = 0
    for t, step in enumerate(list(h) + [0]):
        total += step
        if ideal.hf(t) != total:
            return False
    try:
        return h_vector(ideal) == tuple(h)
    except ValueError:  # S/I is not a zero-scheme cone
        return False
