import numpy as np
import pytest

from gorlink.mpoly import MultiPoly, monomials_of_degree
from gorlink.groebner import groebner, h_vector
from gorlink.gorenstein import (
    BadPositionError,
    DegreeMatrix,
    ProjectionWitness,
    SkewPolyMatrix,
    char_poly_of_projection,
    extract_subscheme,
    generic_degree_matrix,
    is_reduced_and_split,
    multiplication_operator,
    numerator_polynomial,
    pfaffian,
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
                upper[(i, j)] = MultiPoly(
                    {m: st.below(p) for m in monomials_of_degree(deg)}, p
                )
    return SkewPolyMatrix(dm, upper, p)


def test_three_by_three_pfaffians_are_entries():
    p = 101
    dm = DegreeMatrix((2, 2, 2), 6)
    st = SplitStream(1).child("pf3")
    M = _random_skew(dm, p, st)
    a, b, c = M.entry(0, 1), M.entry(0, 2), M.entry(1, 2)
    assert submaximal_pfaffians(M) == [c, -b, a]


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
                acc = acc + M.entry(i, j) * pf[j]
            assert acc.is_zero(), (cand.h.entries, i)
    assert max(len(g) for g in seen) == 13  # largest layout is 13x13


def test_pfaffian_squared_is_determinant():
    from gorlink.gorenstein import _pfaffian

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

        pf = _pfaffian(entry, tuple(range(n)), {}, p)
        pf_val = pf.terms.get((0, 0, 0, 0), 0)
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


def test_random_gorenstein_single_point():
    _, gb = random_gorenstein((1,), 101, SplitStream(5).child("gorenstein"))
    assert h_vector(gb) == (1,)
    assert gb.scheme_degree() == 1


def test_char_poly_single_point():
    p = 101
    gb = groebner([P("x1", p), P("x2", p), P("x3", p)], p)
    sigma0, n = gb.stable_degree()
    assert (sigma0, n) == (0, 1)
    T = multiplication_operator(gb, P("x1", p), P("x0", p), sigma0)
    from gorlink.gf import charpoly_mod_p

    assert charpoly_mod_p(T, p) == [0, 1]  # f = t


def test_char_poly_two_points():
    p = 101
    # points (1:0:0:0) and (1:1:0:0): ideal (x2, x3, x1(x1-x0))
    gb = groebner([P("x2", p), P("x3", p), P("x1^2 + 100*x0*x1", p)], p)
    sigma0, n = gb.stable_degree()
    assert n == 2
    T = multiplication_operator(gb, P("x1", p), P("x0", p), sigma0)
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
                sigma0 = gb.stable_degree()[0]
                ell = MultiPoly.linear_form([1, 2, 3, 4], p)
                for k in range(10):
                    xs = st.child("xh", k)
                    xh = MultiPoly.linear_form([xs.below(p) for _ in range(4)], p)
                    if xh.is_zero():
                        continue
                    try:
                        multiplication_operator(gb, ell, xh, sigma0)
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
    cofactor = UniPoly(sympy_ddf.quotient(w.char_poly.coeffs, w.factor.coeffs, p), p)
    assert witness_splits(gb, ProjectionWitness(w.ell, w.xh, None, cofactor), 3)
    assert not witness_splits(gb, w, 4)  # the factor has degree 5
    c = w.factor.coeffs
    for bad in (UniPoly([2 * a for a in c], p), UniPoly([c[0] + 1, *c[1:]], p)):
        # not monic, or not a divisor
        assert not witness_splits(gb, ProjectionWitness(w.ell, w.xh, None, bad), 5)
    # a double point: the char poly t^2 of x1/x0 is not square-free
    double = groebner([P("x1^2", p), P("x2", p), P("x3", p)], p)
    t = UniPoly([0, 1], p)
    assert not witness_splits(double, ProjectionWitness(P("x1", p), P("x0", p), None, t), 1)
    # x_h = x1 vanishes at the point, so it is no dehomogenizer there
    assert not witness_splits(double, ProjectionWitness(P("x0", p), P("x1", p), None, t), 1)


def test_extraction_trivial_cases():
    p = 101
    _, gb = random_gorenstein((1, 3, 3, 1), p, SplitStream(8).child("gorenstein"))
    w = is_reduced_and_split(gb, 8, SplitStream(8).child("full"))
    assert w is not None and w.factor.degree == 8
    assert extract_subscheme(gb, w.ell, w.xh, w.factor) == gb
    unit = extract_subscheme(gb, w.ell, w.xh, UniPoly.one(p))
    assert unit.is_unit()


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
            assert oracle.groebner(fast.gens, 101) == slow
            checked += 1
        if checked >= 4:
            break
    assert checked >= 4


def test_residual_two_points():
    p = 101
    # G = two points, X = one of them, Y = the other
    gb = groebner([P("x2", p), P("x3", p), P("x1^2 + 100*x0*x1", p)], p)
    gbx = groebner([P("x1", p), P("x2", p), P("x3", p)], p)
    gby = residual(gb, gbx)
    # Y = (1:1:0:0): ideal (x1 - x0, x2, x3)
    assert gby.contains(P("x1 + 100*x0", p))
    assert gby.scheme_degree() == 1


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
        assert all(gbx.contains(g) for g in gb.gens)
        gby = residual(gb, gbx)
        assert gby.scheme_degree() == 10
        assert h_vector(gby) == (1, 3, 6)
        # liaison involution
        assert point_ideal_quotient(gb, list(gby.gens)) == gbx
        assert point_ideal_quotient(gb, list(gbx.gens)) == gby
        break
    assert found


def test_residual_agrees_with_elimination_quotient():
    # dual-route check: the degreewise point quotient behind residual()
    # must match the general elimination-based ideal_quotient
    checked = 0
    for h, d, seeds in (((1, 1, 1), 2, range(1, 6)), ((1, 3, 3, 1), 6, range(6, 12))):
        for seed in seeds:
            _, gb = random_gorenstein(h, 101, SplitStream(seed).child("gorenstein"))
            w = is_reduced_and_split(gb, d, SplitStream(seed).child("dual", d))
            if w is None:
                continue
            gbx = extract_subscheme(gb, w.ell, w.xh, w.factor)
            fast = point_ideal_quotient(gb, list(gbx.gens))
            slow = oracle.ideal_quotient(
                oracle.groebner(gb.gens, 101), oracle.groebner(gbx.gens, 101)
            )
            assert oracle.groebner(fast.gens, 101) == slow
            checked += 1
            break
    assert checked == 2


def test_residual_of_whole_scheme_is_unit():
    _, gb = random_gorenstein((1, 3, 3, 1), 101, SplitStream(9).child("gorenstein"))
    assert residual(gb, gb).is_unit()


def test_matrix_serialization_roundtrip():
    st = SplitStream(10).child("ser")
    p = 10007
    dm = generic_degree_matrix((1, 3, 6, 6, 3, 1))
    M = _random_skew(dm, p, st)
    back = SkewPolyMatrix.deserialize(M.serialize(), p)
    assert back == M
