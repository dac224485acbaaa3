import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from gorlink.gf import charpoly_mod_p
from gorlink.mpoly import MultiPoly, monomials_of_degree
from gorlink.groebner import SubIdeal, groebner, h_vector
from gorlink.gorenstein import (
    BadPositionError,
    DegeneracyError,
    DegreeMatrix,
    ProjectionWitness,
    SkewPolyMatrix,
    char_poly_of_projection,
    extract_subscheme,
    generic_degree_matrix,
    involution_holds,
    is_reduced_and_split,
    multiplication_operator,
    numerator_polynomial,
    point_ideal_quotient,
    random_gorenstein,
    residual,
    submaximal_pfaffians,
    witness_splits,
)
from gorlink.hvectors import enumerate_candidates
from gorlink.rng import SplitStream
from gorlink.unipoly import UniPoly

import groebner_oracle as oracle
import sympy_ddf
from gf_reference import det_mod_p


def P(s, p):
    return MultiPoly.parse(s, p)


def test_numerator_examples():
    assert numerator_polynomial((1,)) == [1, -3, 3, -1]
    assert numerator_polynomial((1, 3, 6, 10, 6, 3, 1)) == [1, 0, 0, 0, -9, 9, 0, 0, 0, -1]
    assert numerator_polynomial((1, 3, 3, 1)) == [1, 0, -3, 0, 3, 0, -1]


def test_generic_degree_matrix_examples():
    dm = generic_degree_matrix((1, 3, 6, 10, 6, 3, 1))
    assert dm.gen_degrees == (4,) * 9 and dm.socle_degree == 9
    assert all(dm.entry_degree(i, j) == 1 for i in range(9) for j in range(9))

    dm = generic_degree_matrix((1, 3, 6, 6, 6, 3, 1))
    assert dm.gen_degrees == (3, 3, 3, 3, 5, 5, 5) and dm.socle_degree == 9
    assert dm.free_module_split() == ([(3, -4), (4, -6)], [(3, -5), (4, -3)])

    dm = generic_degree_matrix((1, 3, 6, 6, 6, 6, 3, 1))
    assert dm.gen_degrees == (3, 3, 3, 3, 6, 6, 6) and dm.socle_degree == 10
    assert dm.free_module_split() == ([(3, -4), (4, -7)], [(3, -6), (4, -3)])

    # Koszul case, three quadrics
    dm = generic_degree_matrix((1, 3, 3, 1))
    assert dm.gen_degrees == (2, 2, 2) and dm.socle_degree == 6


def test_generic_degree_matrix_middle_pair_completion():
    # even naive generator count: one extra generator at sigma/2
    assert generic_degree_matrix((1, 2, 2, 1)).gen_degrees == (1, 2, 3)
    assert generic_degree_matrix((1, 3, 4, 4, 3, 1)).gen_degrees == (2, 2, 4)
    assert generic_degree_matrix((1, 3, 6, 7, 7, 6, 3, 1)).gen_degrees == (3, 3, 3, 5, 6)


def test_generic_degree_matrix_rejects_nonsense():
    with pytest.raises(ValueError):
        generic_degree_matrix((1, 3, 2, 3, 1))


def test_forced_zero_blocks_match_exclusion_shapes():
    # type I c=0 / type II c<=1 force a >= 2x2 zero block off the diagonal
    def has_zero_block(dm):
        idx = range(dm.size)
        return any(
            dm.entry_degree(i, j) <= 0 and i != j for i in idx for j in idx
        )

    for h in [(1, 3, 3, 3, 1), (1, 3, 3, 3, 3, 1), (1, 3, 6, 6, 6, 3, 1),
              (1, 3, 6, 6, 6, 6, 3, 1), (1, 3, 6, 7, 7, 6, 3, 1),
              (1, 3, 6, 10, 10, 10, 6, 3, 1)]:
        assert has_zero_block(generic_degree_matrix(h)), h
    for h in [(1, 3, 6, 10, 6, 3, 1), (1, 2, 2, 1), (1, 3, 6, 6, 3, 1)]:
        assert not has_zero_block(generic_degree_matrix(h)), h


def _random_skew(dm, p, st):
    upper = {}
    for i in range(dm.size):
        for j in range(i + 1, dm.size):
            deg = dm.entry_degree(i, j)
            if deg >= 1:
                upper[(i, j)] = MultiPoly(deg, [st.below(p) for _ in monomials_of_degree(deg)], p)
    return SkewPolyMatrix(dm, upper, p)


def test_three_by_three_pfaffians_are_entries():
    p = 101
    dm = DegreeMatrix((2, 2, 2), 6)
    st = SplitStream(1).child("pf3")
    M = _random_skew(dm, p, st)
    a, b, c = M.upper[0, 1], M.upper[0, 2], M.upper[1, 2]
    assert submaximal_pfaffians(M) == [c, oracle.poly_neg(b), a]


def test_pfaffian_syzygy_all_candidate_layouts():
    st = SplitStream(2).child("pfsyz")
    p = 101
    seen = set()
    for cand in enumerate_candidates(6):
        dm = generic_degree_matrix(cand.h)
        if dm.gen_degrees in seen:
            continue
        seen.add(dm.gen_degrees)
        M = _random_skew(dm, p, st.child(str(dm.gen_degrees)))
        pf = submaximal_pfaffians(M)
        for i in range(dm.size):
            acc = MultiPoly.zero(p)
            for j in range(dm.size):
                acc = oracle.poly_add(acc, oracle.poly_mul(oracle.skew_entry(M, i, j), pf[j]))
            assert acc.is_zero(), (cand.h.entries, i)
    assert max(len(g) for g in seen) == 13  # largest layout is 13x13


_LAYOUTS = sorted(
    {generic_degree_matrix(c.h).gen_degrees: generic_degree_matrix(c.h)
     for c in enumerate_candidates(6)}.items()
)


@pytest.mark.parametrize("dm", [dm for _, dm in _LAYOUTS], ids=[str(g) for g, _ in _LAYOUTS])
@settings(max_examples=3, deadline=None)
@given(p=hst.sampled_from([3, 5, 10007, 2**31 - 1]), seed=hst.integers(0, 2**32 - 1), data=hst.data())
def test_dense_pfaffians_match_laplace_expansion(dm, p, seed, data):
    # every generic layout of s <= 6, the 3 x 3 ones among them; entries of
    # degree 0 may hold constants and a drawn set of entries is zero, as in
    # a deserialized matrix
    slots = [(i, j) for i in range(dm.size) for j in range(i + 1, dm.size)
             if dm.entry_degree(i, j) >= 0]
    zeros = data.draw(hst.sets(hst.sampled_from(slots)))
    st = SplitStream(seed).child("dense-pf")
    upper = {}
    for i, j in slots:
        if (i, j) not in zeros:
            deg = dm.entry_degree(i, j)
            upper[(i, j)] = MultiPoly(deg, [st.below(p) for _ in monomials_of_degree(deg)], p)
    M = SkewPolyMatrix(dm, upper, p)
    assert submaximal_pfaffians(M) == oracle.submaximal_pfaffians(M)


def test_pfaffian_squared_is_determinant():
    st = SplitStream(3).child("pfdet")
    p = 101
    for n in (2, 4, 6, 8, 10, 12):
        vals = np.zeros((n, n), dtype=np.int64)
        for i in range(n):
            for j in range(i + 1, n):
                v = st.below(p)
                vals[i, j] = v
                vals[j, i] = (-v) % p

        def entry(i, j, vals=vals):
            c = int(vals[i, j])
            return MultiPoly.constant(c, p) if c else MultiPoly.zero(p)

        pf = oracle.pfaffian(entry, n, p)
        pf_val = oracle.terms(pf).get((0, 0, 0, 0), 0)
        assert pf_val * pf_val % p == det_mod_p(vals, p)


def test_random_gorenstein_hits_target_hvector():
    st = SplitStream(4).child("rg")
    p = 101
    seen = set()
    for cand in enumerate_candidates(6):
        if cand.h.degree > 40 or cand.h.entries in seen:
            continue
        seen.add(cand.h.entries)
        _, gb = random_gorenstein(cand.h, p, st.child(cand.h.csv()))
        assert h_vector(gb) == cand.h.entries


def test_groebner_and_draw_reject_bad_modulus():
    # checked before any work: the draws used to run on, giving a Hilbert
    # function over Z/4, a "Gorenstein" draw over Z/9, or DegeneracyError
    # after MATRIX_RETRIES draws that each failed inside the elimination
    for p in (1, 4, 9, (1 << 61) - 1):
        with pytest.raises(ValueError, match="odd prime"):
            groebner([P("x0^2", p), P("x1*x2", p)], p)
        with pytest.raises(ValueError, match="odd prime"):
            groebner([], p)
        try:
            random_gorenstein((1, 3, 1), p, SplitStream(5).child("gorenstein"))
        except DegeneracyError:
            pytest.fail("p = %d reached the draws" % p)
        except ValueError as exc:
            assert "odd prime" in str(exc)
        else:
            pytest.fail("p = %d was accepted" % p)


def test_random_gorenstein_single_point():
    _, gb = random_gorenstein((1,), 101, SplitStream(5).child("gorenstein"))
    assert h_vector(gb) == (1,)
    assert gb.scheme_degree() == 1


def test_char_poly_single_point():
    p = 101
    gb = groebner([P("x1", p), P("x2", p), P("x3", p)], p)
    sigma0, n = gb.stable_degree()
    assert (sigma0, n) == (0, 1)
    T = multiplication_operator(gb, P("x1", p), P("x0", p))
    from gorlink.gf import charpoly_mod_p

    assert charpoly_mod_p(T, p) == [0, 1]  # f = t


def test_char_poly_two_points():
    p = 101
    # points (1:0:0:0) and (1:1:0:0): ideal (x2, x3, x1(x1-x0))
    gb = groebner([P("x2", p), P("x3", p), P("x1^2 + 100*x0*x1", p)], p)
    sigma0, n = gb.stable_degree()
    assert n == 2
    T = multiplication_operator(gb, P("x1", p), P("x0", p))
    from gorlink.gf import charpoly_mod_p

    # f = t(t-1) = t^2 - t
    assert charpoly_mod_p(T, p) == [0, (-1) % p, 1]


def test_char_poly_of_projection_degree():
    _, gb = random_gorenstein((1, 3, 3, 1), 101, SplitStream(6).child("gorenstein"))
    ell, xh, f = char_poly_of_projection(gb, SplitStream(6).child("projection"))
    assert f.degree == 8
    assert f.is_monic()


def test_bad_position_matches_artinian_reduction():
    """multiplication_operator's single-degree check rejects exactly the
    zero-divisors x_h that the artinian reduction's Hilbert function
    finds; at small p both outcomes are common."""
    for p in (5, 7, 11):
        outcomes = set()
        for h in ((1, 3, 1), (1, 3, 3, 1), (1, 3, 4, 3, 1)):
            for seed in range(3):
                st = SplitStream(seed).child("nzd", p, h)
                _, gb = random_gorenstein(h, p, st.child("gorenstein"))
                ell = MultiPoly.linear_form([1, 2, 3, 4], p)
                for k in range(10):
                    xs = st.child("xh", k)
                    xh = MultiPoly.linear_form([xs.below(p) for _ in range(4)], p)
                    if xh.is_zero():
                        continue
                    try:
                        multiplication_operator(gb, ell, xh)
                        bad = False
                    except BadPositionError:
                        bad = True
                    assert bad != oracle.artinian_hf_ok(gb, xh, h)
                    outcomes.add(bad)
        assert outcomes == {False, True}


def test_is_reduced_and_split_rejects_nonreduced():
    p = 101
    # a double point: char poly of any projection is (t - a)^2
    gb = groebner([P("x1^2", p), P("x2", p), P("x3", p)], p)
    assert is_reduced_and_split(gb, 1, SplitStream(7).child("nr")) is None


def test_witness_splits_checks_char_poly():
    p = 101
    _, gb = random_gorenstein((1, 3, 3, 1), p, SplitStream(8).child("gorenstein"))
    w = is_reduced_and_split(gb, 5, SplitStream(8).child("w"))
    assert w is not None and witness_splits(gb, w, 5)
    f = charpoly_mod_p(multiplication_operator(gb, w.ell, w.xh), p)
    cofactor = UniPoly(sympy_ddf.quotient(f, w.factor.coeffs, p), p)
    assert witness_splits(gb, ProjectionWitness(w.ell, w.xh, cofactor), 3)
    assert not witness_splits(gb, w, 4)  # the factor has degree 5
    c = w.factor.coeffs
    for bad in (UniPoly([2 * a for a in c], p), UniPoly([c[0] + 1, *c[1:]], p)):
        # not monic, or not a divisor
        assert not witness_splits(gb, ProjectionWitness(w.ell, w.xh, bad), 5)
    # a double point: the char poly t^2 of x1/x0 is not square-free
    double = groebner([P("x1^2", p), P("x2", p), P("x3", p)], p)
    t = UniPoly([0, 1], p)
    assert not witness_splits(double, ProjectionWitness(P("x1", p), P("x0", p), t), 1)
    # x_h = x1 vanishes at the point, so it is no dehomogenizer there
    assert not witness_splits(double, ProjectionWitness(P("x0", p), P("x1", p), t), 1)
    # three points on a line: the char poly t(t - 1)(t - 2) of x1/x0 is
    # square-free; t(t - 3) is monic of degree 2 and shares only t with it
    three = groebner([P("x1^3 + 98*x0*x1^2 + 2*x0^2*x1", p), P("x2", p), P("x3", p)], p)
    x1, x0 = P("x1", p), P("x0", p)
    assert witness_splits(three, ProjectionWitness(x1, x0, UniPoly([0, 100, 1], p)), 2)
    assert not witness_splits(three, ProjectionWitness(x1, x0, UniPoly([0, 98, 1], p)), 2)
    # a double point beside a simple one: t^2 (t - 1) is not square-free,
    # though the monic factor t - 1 divides it
    fat = groebner([P("x1^3 + 100*x0*x1^2", p), P("x2", p), P("x3", p)], p)
    assert not witness_splits(fat, ProjectionWitness(x1, x0, UniPoly([100, 1], p)), 1)


def test_extraction_trivial_cases():
    p = 101
    _, gb = random_gorenstein((1, 3, 3, 1), p, SplitStream(8).child("gorenstein"))
    w = is_reduced_and_split(gb, 8, SplitStream(8).child("full"))
    assert w is not None and w.factor.degree == 8
    whole = extract_subscheme(gb, w.ell, w.xh, w.factor)
    unit = extract_subscheme(gb, w.ell, w.xh, UniPoly.one(p))
    # both take the general path, W = f(T) = 0 and W = 1, as sub-ideals
    # over I_G, and the residual of each is the other
    for sub in (whole, unit):
        assert isinstance(sub, SubIdeal) and sub.base is gb
    n = gb.scheme_degree()
    nothing = SubIdeal(gb, w.xh, np.zeros((0, n), dtype=np.int64))
    everything = SubIdeal(gb, w.xh, np.eye(n, dtype=np.int64))
    assert oracle.same_ideal(whole, gb) and oracle.same_ideal(whole, nothing)
    assert oracle.graded_is_unit(unit) and oracle.same_ideal(unit, everything)
    assert oracle.same_ideal(residual(gb, whole), unit)
    assert oracle.same_ideal(residual(gb, unit), whole)
    # a factor of degree above deg G is the caller's error, not a failed split
    with pytest.raises(ValueError):
        extract_subscheme(gb, w.ell, w.xh, UniPoly([0] * (n + 1) + [1], p))


def test_extraction_matches_saturation_formula():
    # the degreewise construction equals saturate(I_G + (F_d), x_h)
    checked = 0
    for seed in range(6, 14):
        _, gb = random_gorenstein((1, 3, 3, 1), 101, SplitStream(seed).child("gorenstein"))
        for d in (5, 6, 7):
            w = is_reduced_and_split(gb, d, SplitStream(seed).child("x", d))
            if w is None:
                continue
            fast = extract_subscheme(gb, w.ell, w.xh, w.factor)
            slow = oracle.extract_subscheme_by_saturation(gb, w.ell, w.xh, w.factor)
            assert oracle.groebner(oracle.ideal_gens(fast), 101) == slow
            checked += 1
        if checked >= 4:
            break
    assert checked >= 4


def test_residual_two_points():
    p = 101
    # G = two points, X = one of them, Y = the other: x1/x0 is 0 at
    # (1:0:0:0) and 1 at (1:1:0:0), so its char poly is t(t - 1) and the
    # factor t cuts out X
    gb = groebner([P("x2", p), P("x3", p), P("x1^2 + 100*x0*x1", p)], p)
    gbx = extract_subscheme(gb, P("x1", p), P("x0", p), UniPoly([0, 1], p))
    assert oracle.same_ideal(gbx, groebner([P("x1", p), P("x2", p), P("x3", p)], p))
    gby = residual(gb, gbx)
    # Y = (1:1:0:0): ideal (x1 - x0, x2, x3)
    assert oracle.graded_contains(gby, P("x1 + 100*x0", p))
    assert not oracle.graded_contains(gby, P("x1", p))
    assert gby.scheme_degree() == 1
    assert oracle.same_ideal(gby, oracle.residual(gb, gbx))
    # residual reads the factor image that extract_subscheme keeps
    with pytest.raises(ValueError):
        residual(gb, groebner([P("x1", p), P("x2", p), P("x3", p)], p))


@pytest.mark.parametrize("p", [10007, 32003, (1 << 31) - 1])
def test_residual_matches_colon_reference(p):
    """Y from the left kernel of f_d(T) equals the colon I_G : I_X on drawn
    witnesses, as sub-ideals over I_G, and the involution returns I_X."""
    checked = 0
    for h, d in (((1, 3, 3, 1), 3), ((1, 3, 3, 1), 6), ((1, 3, 6, 6, 3, 1), 8)):
        for attempt in range(10):
            st = SplitStream(41).child("colon", p, attempt)
            _, gb = random_gorenstein(h, p, st.child("g"))
            w = is_reduced_and_split(gb, d, st.child("s"))
            if w is None:
                continue
            gbx = extract_subscheme(gb, w.ell, w.xh, w.factor)
            gby = residual(gb, gbx)
            assert isinstance(gby, SubIdeal) and gby.base is gb
            assert gby.scheme_degree() == sum(h) - d
            assert oracle.same_ideal(gby, oracle.residual(gb, gbx)), (h, d, p, attempt)
            assert oracle.same_ideal(oracle.degreewise_colon(gb, oracle.ideal_gens(gby)), gbx)
            assert involution_holds(gb, gbx, gby, w.xh)
            checked += 1
            break
    assert checked == 3


def test_end_to_end_split_30_points():
    found = False
    for attempt in range(20):
        st = SplitStream(2024).child("e2e", attempt)
        M, gb = random_gorenstein((1, 3, 6, 10, 6, 3, 1), 10007, st.child("gor"))
        w = is_reduced_and_split(gb, 20, st.child("split"))
        if w is None:
            continue
        found = True
        gbx = extract_subscheme(gb, w.ell, w.xh, w.factor)
        assert gbx.scheme_degree() == 20
        assert h_vector(gbx) == (1, 3, 6, 10)
        assert all(oracle.graded_contains(gbx, g) for g in gb.gens)
        gby = residual(gb, gbx)
        assert gby.scheme_degree() == 10
        assert h_vector(gby) == (1, 3, 6)
        # liaison involution
        assert oracle.same_ideal(oracle.degreewise_colon(gb, oracle.ideal_gens(gby)), gbx)
        assert oracle.same_ideal(oracle.degreewise_colon(gb, oracle.ideal_gens(gbx)), gby)
        assert involution_holds(gb, gbx, gby, w.xh) and involution_holds(gb, gby, gbx, w.xh)
        break
    assert found


def test_residual_agrees_with_elimination_quotient():
    # dual-route check: the degreewise colon behind the reference residual
    # must match the general elimination-based ideal_quotient, and the
    # stable-degree colon must be its piece there
    checked = 0
    for h, d, seeds in (((1, 1, 1), 2, range(1, 6)), ((1, 3, 3, 1), 6, range(6, 12))):
        for seed in seeds:
            _, gb = random_gorenstein(h, 101, SplitStream(seed).child("gorenstein"))
            w = is_reduced_and_split(gb, d, SplitStream(seed).child("dual", d))
            if w is None:
                continue
            gbx = extract_subscheme(gb, w.ell, w.xh, w.factor)
            gens_x = oracle.ideal_gens(gbx)
            fast = oracle.degreewise_colon(gb, gens_x)
            slow = oracle.ideal_quotient(
                oracle.groebner(gb.gens, 101), oracle.groebner(gens_x, 101)
            )
            assert oracle.groebner(oracle.ideal_gens(fast), 101) == slow
            R, pivots = point_ideal_quotient(gb, gens_x, w.xh)
            R2, pivots2 = fast.relative(gb.stable_degree()[0])
            assert pivots == pivots2 and np.array_equal(R, R2)
            checked += 1
            break
    assert checked == 2


def test_residual_of_whole_scheme_is_unit():
    # by the colon, I_G : I_G is the unit ideal, a sub-ideal over I_G; and
    # a degree-0 generator gives I_G : S = I_G
    _, gb = random_gorenstein((1, 3, 3, 1), 101, SplitStream(9).child("gorenstein"))
    _, xh, _ = char_poly_of_projection(gb, SplitStream(9).child("xh"))
    n = gb.scheme_degree()
    unit = oracle.residual(gb, gb)
    assert isinstance(unit, oracle.HeldPieces) and unit.base is gb
    everything = SubIdeal(gb, xh, np.eye(n, dtype=np.int64))
    assert oracle.graded_is_unit(unit) and oracle.same_ideal(unit, everything)
    same = oracle.degreewise_colon(gb, [P("3", 101)])
    assert isinstance(same, oracle.HeldPieces) and same.base is gb and oracle.same_ideal(same, gb)
    # the same two colons in the stable degree: all of (S/I_G)_sigma0, and 0
    R, pivots = point_ideal_quotient(gb, gb.gens, xh)
    assert pivots == list(range(n)) and np.array_equal(R, np.eye(n))
    R, pivots = point_ideal_quotient(gb, [P("3", 101)], xh)
    assert pivots == [] and R.shape == (0, n)
    with pytest.raises(ValueError):
        point_ideal_quotient(gb, [MultiPoly.zero(101)], xh)


def test_stable_colon_needs_a_nonzerodivisor():
    p = 101
    # two points (1:0:0:0) and (1:1:0:0); x1 vanishes at the first
    gb = groebner([P("x2", p), P("x3", p), P("x1^2 + 100*x0*x1", p)], p)
    with pytest.raises(BadPositionError):
        point_ideal_quotient(gb, [P("x1", p)], P("x1", p))
    R, pivots = point_ideal_quotient(gb, [P("x1", p)], P("x0", p))
    # x1 kills the functions vanishing at (1:1:0:0), which x1 - x0 spans
    assert pivots == [0] and R.tolist() == [[1, p - 1]]


def _exact_product(A, B, p):
    return (A.astype(object) @ B.astype(object) % p).astype(np.int64)


@pytest.mark.parametrize("p", [10007, (1 << 31) - 1])
def test_stable_frame(p):
    """The frame T_0..T_3 of x_h: T_i = mult(x_i) mult(x_h)^-1, the T_i
    commute, sum ell_i T_i is multiplication_operator's T, and the frame is
    built once per x_h."""
    _, gb = random_gorenstein((1, 3, 6, 6, 3, 1), p, SplitStream(44).child("g"))
    ell, xh, f = char_poly_of_projection(gb, SplitStream(44).child("proj"))
    sigma0, n = gb.stable_degree()
    T = gb.stable_operators(xh)
    assert T.shape == (4, n, n) and gb.stable_operators(xh) is T
    inverse = oracle._matrix_inverse(gb.mult_matrix(xh, sigma0), p)
    for i in range(4):
        x_i = MultiPoly.linear_form([int(i == j) for j in range(4)], p)
        assert np.array_equal(T[i], _exact_product(gb.mult_matrix(x_i, sigma0), inverse, p))
        for j in range(i):
            assert np.array_equal(_exact_product(T[i], T[j], p), _exact_product(T[j], T[i], p))
    reference = _exact_product(gb.mult_matrix(ell, sigma0), inverse, p)
    combined = sum(c * T[i].astype(object) for i, c in enumerate(ell.coeffs.tolist())) % p
    assert np.array_equal(combined.astype(np.int64), reference)
    assert np.array_equal(multiplication_operator(gb, ell, xh), reference)


@pytest.mark.parametrize("p", [101, 10007, 32003, (1 << 31) - 1])
def test_stable_colon_matches_degreewise_colon(p):
    """The involution check in the stable degree against the degreewise
    reference colon, on true pairs (X, Y) of one split and on mismatched
    pairs, X from one split and Y from a split of another degree of the
    same G.  The colon by the oracle's generating set of I_Y has the
    reference's sigma0 piece, and involution_holds, which takes it by one
    piece of I_Y, gives the reference's verdict.  The check builds no
    piece of I_G and none of I_Y, and the stable colon none of I_G."""
    true_pairs = mismatched = 0
    for h, ds in (((1, 3, 3, 1), (3, 5)), ((1, 3, 6, 6, 3, 1), (8, 12))):
        for attempt in range(10):
            st = SplitStream(43).child("stable colon", p, h, attempt)
            _, gb = random_gorenstein(h, p, st.child("g"))
            witnesses = [is_reduced_and_split(gb, d, st.child("s", d)) for d in ds]
            if None not in witnesses:
                break
        assert None not in witnesses
        splits = []
        for w in witnesses:
            gbx = extract_subscheme(gb, w.ell, w.xh, w.factor)
            splits.append((w.xh, gbx, residual(gb, gbx)))
        sigma0 = gb.stable_degree()[0]
        checks = []
        for xh, gbx, _ in splits:
            for _, _, gby in splits:
                built, held = set(gb._pieces), set(gby._pieces)
                holds = involution_holds(gb, gbx, gby, xh)
                assert set(gb._pieces) == built and set(gby._pieces) == held
                gens_y = oracle.ideal_gens(gby)
                built = set(gb._pieces)
                checks.append((gbx, gens_y, point_ideal_quotient(gb, gens_y, xh), holds))
                assert set(gb._pieces) == built
        for gbx, gens_y, (R, pivots), holds in checks:
            slow = oracle.degreewise_colon(gb, gens_y)
            R2, pivots2 = slow.relative(sigma0)
            assert pivots == pivots2 and np.array_equal(R, R2)
            assert holds == oracle.same_ideal(slow, gbx)
            true_pairs += holds
            mismatched += not holds
    assert (true_pairs, mismatched) == (4, 4)


def test_matrix_serialization_roundtrip():
    st = SplitStream(10).child("ser")
    p = 10007
    dm = generic_degree_matrix((1, 3, 6, 6, 3, 1))
    M = _random_skew(dm, p, st)
    back = SkewPolyMatrix.deserialize(M.serialize(), p, 6)
    assert back == M
