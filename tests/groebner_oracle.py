"""Slow reference ideal engine, kept for cross-checks in the test suite.

Buchberger's algorithm with the coprime and chain pair-elimination
criteria, normal selection (pairs by ascending lcm degree), and full
interreduction at the end; the reduced basis is unique, so the output is
independent of generator order.

Ideal quotients go through the classical one-auxiliary-variable
elimination construction (I : f = (I intersect (f)) / f, intersections
via t*I + (1-t)*J).  Saturation by a linear form uses the graded
reverse-lex division shortcut: after a linear change of coordinates
moving the form to x3, dividing every element of a reduced grevlex basis
by its x3 power yields a basis of the saturation.

The program itself works degreewise (gorlink.groebner.GradedSpaces);
the tests compare its ideals, Hilbert functions and quotients with the
ones computed here.  artinian_hf_ok is the slow nonzerodivisor test, by
the Hilbert function in every degree, that the projection's check in a
single degree is compared with.  macaulay_piece builds a graded piece
from scratch, every multiple of every generator and then one rref, which
the program's pieces, grown from the piece one degree below, are compared
with.  graded_coords and graded_mult_matrix read (S/I) coordinates by
filling the product rows and reducing them against a piece, which the
program's normal-form tables are compared with; graded_is_unit and
graded_std_monomials read a piece for the tests.

The program holds an ideal J over I_G as its relative pieces (J/I_G)_t
alone (gorlink.groebner.SubIdeal), pulled back from its piece in the
stable degree, with no generators or full pieces of J.  ideal_gens gives
a generating set of either kind of ideal, unreduced; full_piece builds
J_t from it with macaulay_piece, and graded_contains and same_ideal read
those pieces.  lifted_piece reads J_t off the program's own relative
piece instead, for the tests that compare the two.  degreewise_colon
computes I : J with one left kernel in every degree, held as HeldPieces,
which the program's one annihilator in the stable degree is compared
with.
hom_dim_by_frames computes each degree-zero Hom dimension from its own
constraint matrix over echelon frames of I_X/I_G, built on full_piece,
which the program's one kernel over S/I_G, restricted per submodule, is
compared with.

The ring arithmetic of forms (poly_add, poly_sub, poly_neg, poly_mul)
lives here, since only this engine and the tests use it, and so does the
cached Laplace expansion of Pfaffians (submaximal_pfaffians, pfaffian),
which the program's level-by-level product on dense vectors is compared
with.  All of it works on {monomial: coefficient} term dicts: terms(f)
reads a form's dict, and MultiPoly.from_terms builds a form from one.
render_by_sort is the renderer that sorts a term dict into descending
grevlex order, which the program's walk along the coefficient vector is
compared with.
"""

import heapq

import numpy as np

from gorlink._frozen import Frozen
from gorlink.gf import inv_mod, kernel_basis_array, rank, reduce_rows, rref
from gorlink.groebner import GradedSpaces
from gorlink.mpoly import (
    NVARS,
    MultiPoly,
    grevlex_key,
    monomial_count,
    monomial_degree,
    monomial_mul,
    monomial_position,
    monomials_of_degree,
    product_positions,
)

MAX_HF_PROBE = 80


# ---------------------------------------------------------------------------
# term dicts of forms, ring arithmetic, and the Laplace expansion of Pfaffians


def terms(f):
    """The {monomial: coefficient} dict of the nonzero terms of a form."""
    monos = monomials_of_degree(f.degree)
    nonzero = np.flatnonzero(f.coeffs)
    return {monos[i]: c for i, c in zip(nonzero.tolist(), f.coeffs[nonzero].tolist())}


def leading_monomial(f):
    """The grevlex-leading monomial of a nonzero form."""
    return max(terms(f), key=grevlex_key)


def render_by_sort(term_dict):
    """The canonical text of the form with these nonzero terms, sorted by
    grevlex_key."""
    if not term_dict:
        return "0"
    parts = []
    for m in sorted(term_dict, key=grevlex_key, reverse=True):
        c = term_dict[m]
        factors = []
        if c != 1 or monomial_degree(m) == 0:
            factors.append(str(c))
        for i in range(NVARS):
            if m[i] == 1:
                factors.append("x%d" % i)
            elif m[i] > 1:
                factors.append("x%d^%d" % (i, m[i]))
        parts.append("*".join(factors))
    return " + ".join(parts)


def _check(f, g):
    if f.p != g.p:
        raise ValueError("mixed moduli")


def poly_add(f, g):
    _check(f, g)
    out = terms(f)
    for m, c in terms(g).items():
        out[m] = out.get(m, 0) + c
    return MultiPoly.from_terms(out, f.p)


def poly_neg(f):
    return MultiPoly.from_terms({m: -c for m, c in terms(f).items()}, f.p)


def poly_sub(f, g):
    return poly_add(f, poly_neg(g))


def poly_mul(f, g):
    """f * g; g may be a polynomial or an integer."""
    if isinstance(g, int):
        return MultiPoly.from_terms({m: c * g for m, c in terms(f).items()}, f.p)
    _check(f, g)
    out = {}
    right = terms(g)
    for m1, c1 in terms(f).items():
        for m2, c2 in right.items():
            m = monomial_mul(m1, m2)
            out[m] = (out.get(m, 0) + c1 * c2) % f.p
    return MultiPoly.from_terms(out, f.p)


def skew_entry(M, i, j):
    """Entry (i, j) of the skew-symmetric matrix whose upper triangle a
    SkewPolyMatrix holds (never a diagonal one)."""
    zero = MultiPoly.zero(M.p)
    return M.upper.get((i, j), zero) if i < j else poly_neg(M.upper.get((j, i), zero))


def _pfaffian(matrix_entry, indices, cache, p):
    """Pfaffian of the skew submatrix on the given sorted index tuple, by
    the Laplace expansion along its first index, cached per index tuple."""
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
        term = poly_mul(f, _pfaffian(matrix_entry, sub, cache, p))
        total = poly_add(total, term) if pos % 2 == 0 else poly_sub(total, term)
    cache[indices] = total
    return total


def pfaffian(matrix_entry, n, p):
    """Pfaffian of the even-size n x n skew matrix with the given entries."""
    if n % 2:
        raise ValueError("Pfaffian needs even size")
    return _pfaffian(matrix_entry, tuple(range(n)), {}, p)


def submaximal_pfaffians(M):
    """(-1)^i * Pf(M without row and column i) for an odd-size
    SkewPolyMatrix, by one cached Laplace expansion."""
    if M.size % 2 == 0:
        raise ValueError("sub-maximal Pfaffians need odd size")
    cache = {}
    out = []
    for i in range(M.size):
        sub = tuple(x for x in range(M.size) if x != i)
        pf = _pfaffian(lambda a, b: skew_entry(M, a, b), sub, cache, M.p)
        out.append(pf if i % 2 == 0 else poly_neg(pf))
    return out


# ---------------------------------------------------------------------------
# monomial and substitution helpers only this oracle needs


def _poly_power(f, m):
    out = MultiPoly.constant(1, f.p)
    for _ in range(m):
        out = poly_mul(out, f)
    return out


def monomial_divides(a, b):
    """True iff a | b."""
    return a[0] <= b[0] and a[1] <= b[1] and a[2] <= b[2] and a[3] <= b[3]


def monomial_div(b, a):
    return (b[0] - a[0], b[1] - a[1], b[2] - a[2], b[3] - a[3])


def monomial_lcm(a, b):
    return (
        max(a[0], b[0]),
        max(a[1], b[1]),
        max(a[2], b[2]),
        max(a[3], b[3]),
    )


def term_mul(poly, mono, coeff):
    """poly times coeff * x^mono."""
    p = poly.p
    coeff %= p
    return MultiPoly.from_terms(
        {monomial_mul(m, mono): c * coeff % p for m, c in terms(poly).items()}, p
    )


def substitute_linear(poly, images):
    """Apply xi -> images[i] (a linear change of coordinates)."""
    out = MultiPoly.zero(poly.p)
    one = MultiPoly.constant(1, poly.p)
    power_cache = [{0: one} for _ in range(NVARS)]
    for m, c in terms(poly).items():
        piece = MultiPoly.constant(c, poly.p)
        for i in range(NVARS):
            e = m[i]
            cache = power_cache[i]
            if e not in cache:
                top = max(cache)
                cur = cache[top]
                for k in range(top + 1, e + 1):
                    cur = poly_mul(cur, images[i])
                    cache[k] = cur
            if e:
                piece = poly_mul(piece, cache[e])
        out = poly_add(out, piece)
    return out


# ---------------------------------------------------------------------------
# reduction and Buchberger


def _reduce_full(terms, basis, p):
    """Full normal form of a term dict against [(lt, lt_inv_coeff, terms)]."""
    work = dict(terms)
    remainder = {}
    while work:
        m = max(work, key=grevlex_key)
        c = work.pop(m)
        for lt, ltc_inv, g in basis:
            if monomial_divides(lt, m):
                shift = monomial_div(m, lt)
                factor = c * ltc_inv % p
                for gm, gc in g.items():
                    if gm == lt:
                        continue
                    key = monomial_mul(gm, shift)
                    v = (work.get(key, 0) - factor * gc) % p
                    if v:
                        work[key] = v
                    else:
                        work.pop(key, None)
                break
        else:
            remainder[m] = c
    return remainder


def _spoly(f, ltf, g, ltg, p):
    lcm = monomial_lcm(ltf, ltg)
    cf = inv_mod(f[ltf], p)
    cg = inv_mod(g[ltg], p)
    sf, sg = monomial_div(lcm, ltf), monomial_div(lcm, ltg)
    out = {}
    for m, c in f.items():
        key = monomial_mul(m, sf)
        out[key] = (out.get(key, 0) + c * cf) % p
    for m, c in g.items():
        key = monomial_mul(m, sg)
        out[key] = (out.get(key, 0) - c * cg) % p
    return {m: c for m, c in out.items() if c}


def _buchberger(seed_polys, p):
    basis = []  # list of term dicts
    lts = []

    def push(terms):
        basis.append(terms)
        lts.append(max(terms, key=grevlex_key))

    for f in seed_polys:
        if f:
            push(f)
    if not basis:
        return []

    pairs = []
    done = set()

    def queue_pair(i, j):
        lcm = monomial_lcm(lts[i], lts[j])
        heapq.heappush(
            pairs, (monomial_degree(lcm), grevlex_key(lcm), i, j, lcm)
        )

    n = len(basis)
    for i in range(n):
        for j in range(i + 1, n):
            queue_pair(i, j)

    while pairs:
        _, _, i, j, lcm = heapq.heappop(pairs)
        done.add((i, j))
        # coprime criterion
        if monomial_mul(lts[i], lts[j]) == lcm:
            continue
        # chain criterion
        skip = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if monomial_divides(lts[k], lcm):
                a = (min(i, k), max(i, k))
                b = (min(j, k), max(j, k))
                if a in done and b in done:
                    skip = True
                    break
        if skip:
            continue
        red_basis = [(lts[k], inv_mod(basis[k][lts[k]], p), basis[k])
                     for k in range(len(basis))]
        rem = _reduce_full(_spoly(basis[i], lts[i], basis[j], lts[j], p),
                           red_basis, p)
        if rem:
            push(rem)
            new = len(basis) - 1
            for k in range(new):
                queue_pair(k, new)

    return _interreduce(basis, lts, p)


def _interreduce(basis, lts, p):
    # drop elements whose leading term another element's leading term divides
    order = sorted(range(len(basis)), key=lambda i: grevlex_key(lts[i]))
    keep = []
    for i in order:
        if not any(monomial_divides(lts[k], lts[i]) for k in keep):
            keep.append(i)
    reduced = []
    for idx, i in enumerate(keep):
        others = [
            (lts[k], inv_mod(basis[k][lts[k]], p), basis[k])
            for k in keep
            if k != i
        ]
        rem = _reduce_full(basis[i], others, p)
        if rem:
            lt = max(rem, key=grevlex_key)
            inv = inv_mod(rem[lt], p)
            reduced.append({m: c * inv % p for m, c in rem.items()})
    reduced.sort(key=lambda t: grevlex_key(max(t, key=grevlex_key)))
    return reduced


class GroebnerBasis(Frozen):
    """Reduced grevlex Groebner basis of a homogeneous ideal."""

    __slots__ = ("gens", "p", "_lts")

    def __init__(self, gens, p, _trusted=False):
        if not _trusted:
            raise TypeError("use groebner() to construct a GroebnerBasis")
        object.__setattr__(self, "gens", tuple(gens))
        object.__setattr__(self, "p", p)
        object.__setattr__(
            self,
            "_lts",
            tuple(leading_monomial(g) for g in self.gens),
        )

    def leading_monomials(self):
        return self._lts

    def is_zero(self):
        return not self.gens

    def is_unit(self):
        return any(monomial_degree(lt) == 0 for lt in self._lts)

    def contains(self, f):
        return normal_form(f, self).is_zero()

    def max_degree(self):
        return max((g.degree for g in self.gens), default=0)

    def __eq__(self, other):
        return (
            isinstance(other, GroebnerBasis)
            and self.p == other.p
            and self.gens == other.gens
        )

    def __hash__(self):
        return hash((self.gens, self.p))

    def __repr__(self):
        return "GroebnerBasis(%d gens mod %d)" % (len(self.gens), self.p)


def groebner(gens, p=None):
    """Reduced Groebner basis of the ideal the given polynomials generate."""
    polys = [g for g in gens if not g.is_zero()]
    if p is None:
        if not polys:
            raise ValueError("cannot infer modulus from an empty generator list")
        p = polys[0].p
    for g in polys:
        if g.p != p:
            raise ValueError("mixed moduli")
    reduced = _buchberger([terms(g) for g in polys], p)
    return GroebnerBasis([MultiPoly.from_terms(t, p) for t in reduced], p, _trusted=True)


def normal_form(f, gb):
    """Unique remainder of f on division by the reduced basis."""
    basis = []
    for lt, g in zip(gb.leading_monomials(), gb.gens):
        g_terms = terms(g)
        basis.append((lt, inv_mod(g_terms[lt], gb.p), g_terms))
    return MultiPoly.from_terms(_reduce_full(terms(f), basis, gb.p), gb.p)


def hilbert_function(gb, t):
    """dim of (S/I)_t: the number of degree-t standard monomials."""
    if t < 0:
        return 0
    lts = gb.leading_monomials()
    count = 0
    for m in monomials_of_degree(t):
        if not any(monomial_divides(lt, m) for lt in lts):
            count += 1
    return count


def quotient_dimension(gb):
    """Krull dimension of S/I (equals that of S/LT(I)); -1 for the unit ideal.

    A variable subset V is independent iff no leading monomial is supported
    inside V; the dimension is the largest independent |V|.
    """
    lts = gb.leading_monomials()
    if any(monomial_degree(lt) == 0 for lt in lts):
        return -1
    supports = [frozenset(i for i in range(NVARS) if lt[i]) for lt in lts]
    best = 0
    for mask in range(1 << NVARS):
        V = frozenset(i for i in range(NVARS) if mask >> i & 1)
        if len(V) <= best:
            continue
        if all(not s <= V for s in supports):
            best = len(V)
    return best

# ---------------------------------------------------------------------------
# elimination with one auxiliary variable (for quotients of general ideals)
#
# monomials here are 5-tuples (e_t, e0, e1, e2, e3) ordered by the block
# order "t first, then grevlex on the x part", which eliminates t.


def _e5_key(m):
    return (m[0], grevlex_key(m[1:]))


def _e5_divides(a, b):
    return all(a[i] <= b[i] for i in range(5))


def _e5_reduce(terms, basis, p):
    work = dict(terms)
    remainder = {}
    while work:
        m = max(work, key=_e5_key)
        c = work.pop(m)
        hit = None
        for lt, ltc_inv, g in basis:
            if _e5_divides(lt, m):
                hit = (lt, ltc_inv, g)
                break
        if hit is None:
            remainder[m] = c
            continue
        lt, ltc_inv, g = hit
        shift = tuple(m[i] - lt[i] for i in range(5))
        factor = c * ltc_inv % p
        for gm, gc in g.items():
            if gm == lt:
                continue
            key = tuple(gm[i] + shift[i] for i in range(5))
            v = (work.get(key, 0) - factor * gc) % p
            if v:
                work[key] = v
            else:
                work.pop(key, None)
    return remainder


def _e5_buchberger(seed, p):
    basis = [dict(t) for t in seed if t]
    lts = [max(t, key=_e5_key) for t in basis]
    pairs = []
    done = set()

    def queue(i, j):
        lcm = tuple(max(lts[i][k], lts[j][k]) for k in range(5))
        heapq.heappush(pairs, (sum(lcm), _e5_key(lcm), i, j, lcm))

    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            queue(i, j)
    while pairs:
        _, _, i, j, lcm = heapq.heappop(pairs)
        done.add((i, j))
        if tuple(lts[i][k] + lts[j][k] for k in range(5)) == lcm:
            continue
        skip = False
        for k in range(len(basis)):
            if k not in (i, j) and _e5_divides(lts[k], lcm):
                if (min(i, k), max(i, k)) in done and (min(j, k), max(j, k)) in done:
                    skip = True
                    break
        if skip:
            continue
        ci = inv_mod(basis[i][lts[i]], p)
        cj = inv_mod(basis[j][lts[j]], p)
        si = tuple(lcm[k] - lts[i][k] for k in range(5))
        sj = tuple(lcm[k] - lts[j][k] for k in range(5))
        s = {}
        for m, c in basis[i].items():
            key = tuple(m[k] + si[k] for k in range(5))
            s[key] = (s.get(key, 0) + c * ci) % p
        for m, c in basis[j].items():
            key = tuple(m[k] + sj[k] for k in range(5))
            s[key] = (s.get(key, 0) - c * cj) % p
        s = {m: c for m, c in s.items() if c}
        red = [(lts[k], inv_mod(basis[k][lts[k]], p), basis[k])
               for k in range(len(basis))]
        rem = _e5_reduce(s, red, p)
        if rem:
            basis.append(rem)
            lts.append(max(rem, key=_e5_key))
            for k in range(len(basis) - 1):
                queue(k, len(basis) - 1)
    return basis, lts


def _intersect(gb1, gb2, p):
    """Generators of I1 \\cap I2 via t*I1 + (1-t)*I2 and elimination of t."""
    seed = []
    for g in gb1:
        seed.append({(1,) + m: c for m, c in terms(g).items()})
    for g in gb2:
        d = {(1,) + m: c for m, c in terms(g).items()}
        for m, c in terms(g).items():
            key = (0,) + m
            d[key] = (d.get(key, 0) - c) % p
        seed.append({m: c for m, c in d.items() if c})
    basis, lts = _e5_buchberger(seed, p)
    out = []
    for element, lt in zip(basis, lts):
        if lt[0] == 0:  # block order: t-free leading term means t-free element
            out.append(MultiPoly.from_terms({m[1:]: c for m, c in element.items()}, p))
    return out


def _divide_by(polys, f):
    out = []
    for g in polys:
        q = _exact_divide(g, f)
        out.append(q)
    return out


def _exact_divide(g, f):
    """g / f when f divides g exactly (used after intersecting with (f))."""
    p = g.p
    work = terms(g)
    f_terms = terms(f)
    ltf = leading_monomial(f)
    cf = inv_mod(f_terms[ltf], p)
    quo = {}
    while work:
        m = max(work, key=grevlex_key)
        if not monomial_divides(ltf, m):
            raise ArithmeticError("division is not exact")
        shift = monomial_div(m, ltf)
        c = work[m] * cf % p
        quo[shift] = c
        for fm, fc in f_terms.items():
            key = monomial_mul(fm, shift)
            v = (work.get(key, 0) - c * fc) % p
            if v:
                work[key] = v
            else:
                work.pop(key, None)
    return MultiPoly.from_terms(quo, p)


def ideal_quotient(gb, other):
    """I : J = {f | f*J in I}, computed per generator of J and intersected."""
    p = gb.p
    if isinstance(other, GroebnerBasis):
        jgens = list(other.gens)
    else:
        jgens = [g for g in other if not g.is_zero()]
    if not jgens:
        raise ValueError("quotient by the zero ideal")
    if gb.is_unit():
        return gb
    result = None
    for f in jgens:
        if f.degree == 0:
            part = gb
        else:
            meet = _intersect(gb.gens, [f], p)
            part = groebner(_divide_by(meet, f), p)
        if part.is_unit():
            # f already lies in I, so I : f = (1): neutral for the meet
            continue
        if result is None:
            result = part
        else:
            result = groebner(_intersect(result.gens, part.gens, p), p)
    if result is None:
        result = groebner([MultiPoly.constant(1, p)], p)
    return result


class HeldPieces:
    """A reference ideal J containing a GradedSpaces ideal I, its base, held
    as J/I: piece(t) gives the RREF of (J/I)_t over the base's standard
    monomials, computed once per degree when first read.  It offers what
    the tests read of a gorlink.groebner.SubIdeal: base, relative, hf and
    stable_degree."""

    def __init__(self, base, piece):
        self.base = base
        self.p = base.p
        self._piece = piece
        self._pieces = {}

    def relative(self, t):
        if t not in self._pieces:
            self._pieces[t] = self._piece(t)
        return self._pieces[t]

    def hf(self, t):
        return self.base.hf(t) - len(self.relative(t)[1]) if t >= 0 else 0

    def stable_degree(self):
        """(sigma0, n): the Hilbert function first repeats from sigma0 to
        sigma0 + 1, at the value n."""
        t = next(t for t in range(1, MAX_HF_PROBE) if self.hf(t) == self.hf(t - 1))
        return t - 1, self.hf(t)


def degreewise_colon(ideal, other_gens):
    """Reference I : J for the saturated ideal I of a zero-scheme cone (a
    GradedSpaces), J generated by other_gens, as HeldPieces over I: in each
    degree t, one left kernel of the blocks of multiplication by each
    generator of J from (S/I)_t.  A generator in I adds a zero block, and a
    degree-0 one an invertible block.  gorenstein.point_ideal_quotient,
    which reads the colon off the stable degree alone, is compared with
    this.
    """
    gens_j = [g for g in other_gens if not g.is_zero()]
    if not gens_j:
        raise ValueError("quotient by the zero ideal")
    p = ideal.p

    def piece(t):
        blocks = np.concatenate([ideal.mult_matrix(f, t) for f in gens_j], axis=1)
        return rref(kernel_basis_array(blocks.T, p), p)

    return HeldPieces(ideal, piece)


def residual(ideal_g, ideal_x):
    """Reference I_Y = I_G : I_X, the degreewise colon ideal (HeldPieces
    over I_G), for gorenstein.residual, which reads Y off the kernel of
    f_d(T) instead."""
    if not all(graded_contains(ideal_x, g) for g in ideal_g.gens):
        raise ValueError("residual needs I_G contained in I_X")
    return degreewise_colon(ideal_g, ideal_gens(ideal_x))


# saturation -----------------------------------------------------------------


def _complete_to_basis(coeffs, p):
    """Rows of an invertible matrix whose last row is the given covector."""
    rows = [list(coeffs)]
    for i in range(NVARS):
        e = [0] * NVARS
        e[i] = 1
        cand = rows + [e]
        A = np.array(cand, dtype=np.int64)
        if len(rref(A, p)[1]) == len(cand):
            rows.append(e)
        if len(rows) == NVARS:
            break
    rows = rows[1:] + [rows[0]]  # linear form last, so it becomes x3
    return np.array(rows, dtype=np.int64)


def _matrix_inverse(A, p):
    n = A.shape[0]
    aug = np.concatenate([A % p, np.eye(n, dtype=np.int64)], axis=1)
    R, pivots = rref(aug, p)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix not invertible")
    return R[:, n:]


def _saturate_by_linear(gb, f):
    """I : f^infty for a linear form f, via the grevlex division shortcut."""
    p = gb.p
    A = _complete_to_basis(f.coeffs.tolist(), p)  # y = A x with y3 = f
    Ainv = _matrix_inverse(A, p)
    # x_i = sum_j Ainv[i][j] y_j ; writing gens in y-coordinates substitutes that
    to_y = [MultiPoly.linear_form(Ainv[i].tolist(), p) for i in range(NVARS)]
    moved = [substitute_linear(g, to_y) for g in gb.gens]
    gby = groebner(moved, p)
    divided = []
    for g in gby.gens:
        g_terms = terms(g)
        k = min(m[3] for m in g_terms)
        if k:
            divided.append(MultiPoly.from_terms(
                {(m[0], m[1], m[2], m[3] - k): c for m, c in g_terms.items()}, p
            ))
        else:
            divided.append(g)
    back = [MultiPoly.linear_form(A[i].tolist(), p) for i in range(NVARS)]
    restored = [substitute_linear(g, back) for g in divided]
    return groebner(restored, p)


def saturate(gb, f):
    """I : f^infty, reached when I : f^(m+1) = I : f^m."""
    if f.is_zero():
        raise ValueError("saturation by zero")
    if f.degree == 0 or gb.is_unit():
        return gb
    if f.degree == 1:
        return _saturate_by_linear(gb, f)
    current = gb
    for _ in range(MAX_HF_PROBE):
        nxt = ideal_quotient(current, [f])
        if nxt == current:
            return current
        current = nxt
    raise RuntimeError("saturation did not stabilize")


# subscheme extraction ------------------------------------------------------


def extract_subscheme_by_saturation(gb, ell, xh, f_d):
    """Reference implementation: saturate(I_G + (F_d), x_h) directly.

    F_d is f_d(ell/x_h) cleared of denominators by x_h^deg(f_d).  Slow for
    large factors; used to cross-check extract_subscheme on small cases.
    """
    p = gb.p
    d = f_d.degree
    F = MultiPoly.zero(p)
    for i, c in enumerate(f_d.coeffs):
        if c:
            F = poly_add(F, poly_mul(poly_mul(_poly_power(ell, i), _poly_power(xh, d - i)), int(c)))
    total = groebner(list(gb.gens) + [F], p)
    return saturate(total, xh)


# ---------------------------------------------------------------------------
# nonzerodivisor test by the Hilbert function of the artinian reduction


def artinian_hf_ok(ideal, xh, hvec):
    """Is the Hilbert function of S/(I + (x_h)) equal to the h-vector?

    Its value in degree t is hf(t) less the rank of multiplication by x_h
    from (S/I)_(t-1), for every t up to two past the h-vector.  Fails
    exactly when x_h is a zero-divisor mod I, i.e. vanishes at a point of
    the scheme.  `ideal` is a gorlink.groebner.GradedSpaces.
    """
    e = tuple(hvec)
    for t in range(len(e) + 2):
        image = rank(ideal.mult_matrix(xh, t - 1), ideal.p) if t else 0
        if ideal.hf(t) - image != (e[t] if t < len(e) else 0):
            return False
    return True


# ---------------------------------------------------------------------------
# graded pieces from the Macaulay matrix of all generator multiples


def macaulay_piece(gens, t, p):
    """(R, pivots): RREF of the degree-t piece of the ideal the homogeneous
    gens generate, from the rows of m * g for every generator g of degree
    at most t and every monomial m of degree t - deg g."""
    gens = [g for g in gens if g.degree <= t]
    counts = [monomial_count(t - g.degree) for g in gens]
    rows = np.zeros((sum(counts), monomial_count(t)), dtype=np.int64)
    start = 0
    for g, n in zip(gens, counts):
        fill_multiples(rows[start : start + n], g, t - g.degree)
        start += n
    return rref(rows, p)


# ---------------------------------------------------------------------------
# (S/I) coordinates by reducing filled product rows against a piece


def fill_multiples(out, f, a, shifts=slice(None)):
    """Write the coefficient rows of m * f into out, one row per degree-a
    monomial m at the positions `shifts` of monomials_of_degree(a).

    out is zero on entry, with one column per degree-(a + deg f) monomial.
    """
    f_terms = terms(f)
    cols = [monomial_position(m) for m in f_terms]
    pos = product_positions(a, f.degree)[shifts][:, cols]
    out[np.arange(len(pos))[:, None], pos] = list(f_terms.values())


def graded_coords(ideal, rows, t):
    """Standard-monomial coordinates of degree-t rows: the rows reduced
    against the piece of the GradedSpaces ideal, at its standard columns."""
    R, pivots, std = ideal.piece(t)
    return reduce_rows(np.asarray(rows, dtype=np.int64), R, pivots, ideal.p)[:, std]


def graded_mult_matrix(ideal, f, t):
    """Multiplication by f from (S/I)_t, one filled and reduced row per
    standard monomial."""
    std = ideal.piece(t)[2]
    rows = np.zeros((len(std), monomial_count(t + f.degree)), dtype=np.int64)
    fill_multiples(rows, f, t, std)
    return graded_coords(ideal, rows, t + f.degree)


# ---------------------------------------------------------------------------
# full pieces of an ideal, GradedSpaces or SubIdeal, from a generating set


def ideal_gens(ideal):
    """A generating set of a GradedSpaces ideal I, or of an ideal J held
    over one (a SubIdeal or HeldPieces): I's generators and the rows of
    (J/I)_t lifted onto I's standard monomials for t <= sigma0_I + 1,
    unreduced.  Every J here is a saturated ideal of points X in G, so
    sigma0_J <= sigma0_I and reg J = sigma0_J + 1 <= sigma0_I + 1: those
    pieces generate J."""
    if isinstance(ideal, GradedSpaces):
        return list(ideal.gens)
    base = ideal.base
    gens = list(base.gens)
    for t in range(base.stable_degree()[0] + 2):
        gens += [MultiPoly(t, row, ideal.p) for row in base.lift(ideal.relative(t)[0], t)]
    return gens


def full_piece(ideal, t):
    """(R, pivots) of the ideal's degree-t piece, by macaulay_piece over
    ideal_gens."""
    return macaulay_piece(ideal_gens(ideal), t, ideal.p)


def lifted_piece(sub, t):
    """(R, pivots) of J_t as the SubIdeal's relative piece gives it: the
    base's piece and the lifted rows of (J/I)_t, in one rref."""
    base = sub.base
    rows = np.vstack([base.piece(t)[0], base.lift(sub.relative(t)[0], t)])
    return rref(rows, sub.p)


def graded_contains(ideal, f):
    """Is the form f in the ideal?  Its row reduces to zero against
    full_piece."""
    if f.is_zero():
        return True
    R, pivots = full_piece(ideal, f.degree)
    return not reduce_rows(f.coeffs[None], R, pivots, ideal.p).any()


def same_ideal(a, b):
    """Are a and b the same ideal?  Their full pieces agree up to the
    highest degree of either generating set, which both ideals are
    generated within."""
    gens_a, gens_b = ideal_gens(a), ideal_gens(b)
    top = max((g.degree for g in gens_a + gens_b), default=0)
    for t in range(top + 1):
        R, pivots = macaulay_piece(gens_a, t, a.p)
        R2, pivots2 = macaulay_piece(gens_b, t, a.p)
        if pivots != pivots2 or not np.array_equal(R, R2):
            return False
    return True


# ---------------------------------------------------------------------------
# degree-zero Hom by one constraint matrix per target


def hom_dim_by_frames(M, den, num):
    """dim Hom(I_den, I_num/I_den)_0 for the Pfaffian ideal I_den of M.

    Each piece of I_num/I_den gets an echelon frame in (S/I_den)
    coordinates, multiplication by an entry f is solved in those frames,
    and the constraint matrix over the frames has one row per unknown; the
    answer is its left kernel.  With num the unit ideal the frames are the
    whole of S/I_den.
    """
    p = M.p
    frames = {}

    def frame(t):
        if t not in frames:
            frames[t] = rref(graded_coords(den, full_piece(num, t)[0], t), p)
        return frames[t]

    def mult_map(f, t):
        images = np.array(frame(t)[0], dtype=object).dot(graded_mult_matrix(den, f, t)) % p
        target, pivots = frame(t + f.degree)
        images = images.astype(np.int64)
        if reduce_rows(images, target, pivots, p).any():
            raise ValueError("image leaves I_num/I_den")
        return images[:, pivots]

    gens = M.degree_matrix.gen_degrees
    sigma = M.degree_matrix.socle_degree
    rows = np.cumsum([0] + [len(frame(g)[0]) for g in gens])
    cols = np.cumsum([0] + [len(frame(sigma - g)[0]) for g in gens])
    A = np.zeros((rows[-1], cols[-1]), dtype=np.int64)
    for (k, j), f in M.upper.items():
        A[rows[j] : rows[j + 1], cols[k] : cols[k + 1]] = mult_map(f, gens[j])
        A[rows[k] : rows[k + 1], cols[j] : cols[j + 1]] = -mult_map(f, gens[k]) % p
    return int(rows[-1]) - rank(A.T, p)


def graded_is_unit(ideal):
    """Is the GradedSpaces ideal all of S?  Its degree-0 piece is."""
    return ideal.hf(0) == 0


def graded_std_monomials(ideal, t):
    """The standard monomials of degree t, in the piece's column order."""
    monos = monomials_of_degree(t)
    return [monos[i] for i in ideal.piece(t)[2]]
