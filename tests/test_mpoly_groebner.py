import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from gorlink.gf import reduce_rows, rref
from gorlink.mpoly import (
    MultiPoly,
    grevlex_key,
    monomial_count,
    monomials_of_degree,
    product_positions,
)
from gorlink.groebner import SubIdeal, _xh_pushes, groebner, h_vector
from gorlink.gorenstein import (
    extract_subscheme,
    is_reduced_and_split,
    random_gorenstein,
    residual,
)
from gorlink.rng import SplitStream

# the slow Buchberger engine the degreewise ideals are checked against
import groebner_oracle as oracle
from groebner_oracle import (
    hilbert_function,
    ideal_quotient,
    normal_form,
    quotient_dimension,
    saturate,
)


def P(s, p=7):
    return MultiPoly.parse(s, p)


def random_form(deg, p, st):
    return MultiPoly(deg, [st.below(p) for _ in monomials_of_degree(deg)], p)


def table_coords(ideal, rows, t):
    """Coordinates in (S/I)_t of degree-t rows, read off the ideal's
    normal-form table as rows @ N_t, in exact integers."""
    N = ideal.normal_forms(t).astype(np.int64).astype(object)
    return (np.asarray(rows, dtype=np.int64).astype(object) @ N % ideal.p).astype(np.int64)


def table_contains(ideal, f):
    """Is f in the GradedSpaces ideal?  Its normal form, read off N_t, is 0."""
    return f.is_zero() or not table_coords(ideal, f.coeffs[None], f.degree).any()


def relative_contains(sub, f):
    """Is f in the SubIdeal J?  Its coordinates in S/I reduce to 0 against
    the relative piece (J/I)_t."""
    if f.is_zero():
        return True
    coords = oracle.graded_coords(sub.base, f.coeffs[None], f.degree)
    return not reduce_rows(coords, *sub.relative(f.degree), sub.p).any()


def test_grevlex_order():
    x0, x1, x2, x3 = [tuple(int(i == v) for i in range(4)) for v in range(4)]
    assert grevlex_key(x0) > grevlex_key(x1) > grevlex_key(x2) > grevlex_key(x3)
    # degree dominates
    assert grevlex_key((2, 0, 0, 0)) > grevlex_key((0, 0, 0, 1))
    # x0*x1 > x2^2 in grevlex
    assert grevlex_key((1, 1, 0, 0)) > grevlex_key((0, 0, 2, 0))


def test_render_parse_roundtrip():
    st = SplitStream(4).child("render")
    p = 10007
    for deg in (1, 2, 4):
        for _ in range(10):
            f = random_form(deg, p, st)
            assert MultiPoly.parse(f.render(), p) == f
    assert MultiPoly.zero(p).render() == "0"
    assert MultiPoly.parse("0", p) == MultiPoly.zero(p)


@hst.composite
def _term_dicts(draw):
    """(terms, p): a {monomial: coefficient} dict of one degree 0..6, with
    zero coefficients and the empty dict among them."""
    p = draw(hst.sampled_from([3, 10007, (1 << 31) - 1]))
    monos = monomials_of_degree(draw(hst.integers(0, 6)))
    picked = draw(hst.lists(hst.sampled_from(monos), unique=True))
    return {m: draw(hst.integers(0, p - 1)) for m in picked}, p


@settings(max_examples=200)
@given(_term_dicts())
def test_form_codec_matches_sorting_renderer(case):
    terms, p = case
    nonzero = {m: c for m, c in terms.items() if c}
    f = MultiPoly.from_terms(terms, p)
    assert oracle.terms(f) == nonzero and f.is_zero() == (not nonzero)
    text = f.render()
    assert text == oracle.render_by_sort(nonzero)
    assert MultiPoly.parse(text, p) == f
    data = pickle.dumps(f)
    back = pickle.loads(data)
    assert back == f and hash(back) == hash(f) and pickle.dumps(back) == data
    if not f.is_zero():
        other = "x3^%d" % (f.degree + 1)
        for mixed in (text + " + " + other, other + " + " + text):
            with pytest.raises(ValueError):
                MultiPoly.parse(mixed, p)


def test_from_terms_checks_its_monomials():
    p = 7
    # coefficients are reduced mod p, and zero terms dropped before any check
    f = MultiPoly.from_terms({(1, 0, 0, 0): 7, (0, 2, 0, 0): 0, (0, 0, 1, 0): 10}, p)
    assert f == MultiPoly.linear_form([0, 0, 3, 0], p)
    assert MultiPoly.from_terms({(0, 0, 0, 5): 14}, p) == MultiPoly.zero(p)
    f = MultiPoly.from_terms({(0, 0, 0, 2): 9}, p)
    assert f.coeffs.tolist() == [0] * 9 + [2] and not f.coeffs.flags.writeable
    for bad in ({(1, 0, 0): 1}, {(2, -1, 0, 0): 1}, {(1, 0, 0, 0): 1, (0, 1, 0): 1}):
        with pytest.raises(ValueError, match="four nonnegative"):
            MultiPoly.from_terms(bad, p)
    with pytest.raises(ValueError, match="not one form"):
        MultiPoly.from_terms({(1, 0, 0, 0): 1, (0, 2, 0, 0): 1}, p)


def test_product_positions_and_multiples():
    for a in range(4):
        for b in range(4):
            table = product_positions(a, b)
            prod = monomials_of_degree(a + b)
            assert table.shape == (monomial_count(a), monomial_count(b))
            for i, x in enumerate(monomials_of_degree(a)):
                for j, y in enumerate(monomials_of_degree(b)):
                    assert prod[table[i, j]] == tuple(u + v for u, v in zip(x, y))
    st = SplitStream(13).child("multiples")
    p = 101
    f = random_form(2, p, st)
    shifts = [0, 3, 7]
    rows = np.zeros((len(shifts), monomial_count(5)), dtype=np.int64)
    oracle.fill_multiples(rows, f, 3, shifts)
    for row, k in zip(rows, shifts):
        g = oracle.poly_mul(f, MultiPoly.from_terms({monomials_of_degree(3)[k]: 1}, p))
        assert row.tolist() == g.coeffs.tolist()


def test_groebner_monomial_ideal_is_itself():
    G = oracle.groebner([P("x0"), P("x1")])
    assert [g.render() for g in G.gens] == ["x1", "x0"]


def test_groebner_spair_reduces_to_zero():
    G = oracle.groebner([P("x0*x1"), P("x0*x2")])
    assert sorted(g.render() for g in G.gens) == ["x0*x1", "x0*x2"]


def test_groebner_chain_example():
    G = oracle.groebner([P("x0^2"), P("x0*x1 + x2^2")])
    rendered = {g.render() for g in G.gens}
    assert "x0*x2^2" in rendered  # the S-polynomial remainder, up to sign
    assert "x2^4" in rendered


def test_groebner_independent_of_generator_order():
    st = SplitStream(11).child("perm")
    p = 101
    gens = [random_form(2, p, st) for _ in range(3)] + [random_form(3, p, st)]
    base = oracle.groebner(gens, p)
    import itertools

    for perm in itertools.permutations(range(4)):
        assert oracle.groebner([gens[i] for i in perm], p) == base


def test_groebner_reduced_basis_property():
    # pairwise leading terms do not divide each other; S-polynomials
    # reduce to zero; every element is monic and tail-reduced
    from groebner_oracle import monomial_divides, monomial_lcm, monomial_div

    st = SplitStream(21).child("redgb")
    p = 101
    for trial in range(5):
        gens = [random_form(2, p, st) for _ in range(3)] + [random_form(3, p, st)]
        G = oracle.groebner(gens, p)
        lts = G.leading_monomials()
        for i, a in enumerate(lts):
            assert oracle.terms(G.gens[i])[a] == 1
            for j, b in enumerate(lts):
                if i != j:
                    assert not monomial_divides(a, b)
            for m in oracle.terms(G.gens[i]):
                if m != a:
                    assert not any(monomial_divides(lt, m) for lt in lts)
        for i in range(len(lts)):
            for j in range(i + 1, len(lts)):
                lcm = monomial_lcm(lts[i], lts[j])
                fi = oracle.term_mul(G.gens[i], monomial_div(lcm, lts[i]), 1)
                fj = oracle.term_mul(G.gens[j], monomial_div(lcm, lts[j]), 1)
                assert normal_form(oracle.poly_sub(fi, fj), G).is_zero()


def test_normal_form_examples():
    G = oracle.groebner([P("x0")])
    assert normal_form(P("x0^2"), G).is_zero()
    assert normal_form(P("x1"), G) == P("x1")
    G2 = oracle.groebner([P("x0 + 6*x1")])  # x0 - x1 mod 7
    assert normal_form(P("x0*x1 + x1^2"), G2) == P("2*x1^2")


def test_normal_form_idempotent():
    st = SplitStream(12).child("nf")
    p = 101
    G = oracle.groebner([random_form(2, p, st) for _ in range(2)], p)
    for _ in range(20):
        f = random_form(3, p, st)
        r = normal_form(f, G)
        assert normal_form(r, G) == r
        assert normal_form(oracle.poly_sub(f, r), G).is_zero()


def test_hilbert_function_examples():
    # (x0,x1,x2): one standard monomial x3^t per degree
    G = oracle.groebner([P("x0"), P("x1"), P("x2")])
    for t in (0, 1, 5, 9):
        assert hilbert_function(G, t) == 1
    # principal quadric: HF = C(t+3,3) - C(t+1,3)
    Q = oracle.groebner([P("x0^2")])
    assert hilbert_function(Q, 3) == 20 - 4
    # the full ring in degree 3 has C(6,3) = 20 monomials
    from gorlink.mpoly import monomial_count

    assert monomial_count(3) == 20


def test_complete_intersection_hilbert_series():
    st = SplitStream(13).child("ci")
    p = 101
    for degs in ((2, 2, 2), (2, 2, 3), (2, 3, 3), (3, 3, 3)):
        G = groebner([random_form(d, p, st) for d in degs], p)
        # product formula: h-vector = coefficients of prod (1 + t + ... + t^(d-1))
        prod = [1]
        for d in degs:
            nxt = [0] * (len(prod) + d - 1)
            for i, c in enumerate(prod):
                for j in range(d):
                    nxt[i + j] += c
            prod = nxt
        assert list(h_vector(G)) == prod
        assert quotient_dimension(oracle.groebner(G.gens, p)) == 1


def test_h_vector_rejects_positive_dimension():
    # a plane: the Hilbert function never repeats
    G = groebner([P("x0")])
    with pytest.raises(ValueError):
        h_vector(G)
    # a line with x1 killed to first order: HF 1, 3, 3, 4, 5, ... repeats
    # once, with no leading monomial in x2, x3 alone, then moves on
    line = [P("x0"), P("x1^2"), P("x1*x2"), P("x1*x3")]
    assert quotient_dimension(oracle.groebner(line)) == 2
    assert [groebner(line).hf(t) for t in range(4)] == [1, 3, 3, 4]
    with pytest.raises(ValueError):
        h_vector(groebner(line))


def test_ideal_contains_equality_and_unit_match_oracle():
    # pieces spanned by any generating set give the same ideal as the
    # reduced Buchberger basis, and membership agrees with normal forms
    st = SplitStream(18).child("eq")
    p = 101
    gens = [random_form(2, p, st) for _ in range(3)] + [random_form(3, p, st)]
    ideal = groebner(gens, p)
    reduced = oracle.groebner(gens, p)
    assert oracle.same_ideal(ideal, groebner(reduced.gens, p))
    assert not oracle.same_ideal(ideal, groebner(gens[:3], p))
    for _ in range(10):
        f = random_form(3, p, st)
        r = normal_form(f, reduced)
        assert not table_contains(ideal, f) or r.is_zero()
        assert table_contains(ideal, oracle.poly_sub(f, r))
    # a generator of each degree, and a form of degree 3 outside the ideal
    assert table_contains(ideal, gens[0]) and table_contains(ideal, gens[3])
    outside = next(f for f in (random_form(3, p, st) for _ in range(10))
                   if not normal_form(f, reduced).is_zero())
    assert not table_contains(ideal, outside)
    assert not oracle.graded_is_unit(ideal)
    assert oracle.graded_is_unit(groebner(gens + [P("5", p)], p))


def test_ideal_quotient_examples():
    q1 = ideal_quotient(oracle.groebner([P("x0*x1")]), [P("x0")])
    assert [g.render() for g in q1.gens] == ["x1"]
    ideal = oracle.groebner([P("x0^2"), P("x0*x1")])
    assert ideal_quotient(ideal, [P("3")]) == ideal
    q2 = ideal_quotient(ideal, [P("x0")])
    assert sorted(g.render() for g in q2.gens) == ["x0", "x1"]
    with pytest.raises(ValueError):
        ideal_quotient(ideal, [])


def test_ideal_quotient_generator_inside_ideal():
    # a generator of J lying in I makes that partial quotient the unit
    # ideal, which is neutral for the intersection, not an early answer
    p = 101
    I = oracle.groebner([P("x0", p), P("x1*x2", p)], p)
    q = ideal_quotient(I, [P("x0", p), P("x1", p)])
    assert sorted(g.render() for g in q.gens) == ["x0", "x2"]
    q2 = ideal_quotient(I, [P("x0", p), P("x0*x1*x2", p)])
    assert q2.is_unit()


def test_ideal_quotient_left_inverse():
    st = SplitStream(14).child("quot")
    p = 101
    ideal = oracle.groebner([random_form(2, p, st), random_form(2, p, st)], p)
    j = [random_form(1, p, st), random_form(2, p, st)]
    q = ideal_quotient(ideal, j)
    for qg in q.gens:
        for jg in j:
            assert normal_form(oracle.poly_mul(qg, jg), ideal).is_zero()


def test_saturate_examples():
    s1 = saturate(oracle.groebner([P("x0*x1")]), P("x0"))
    assert [g.render() for g in s1.gens] == ["x1"]
    s2 = saturate(oracle.groebner([P("x0")]), P("x1"))
    assert [g.render() for g in s2.gens] == ["x0"]
    # (x0^2, x0*x1) : x0^inf contains 1 since x0^2 is in the ideal
    s3 = saturate(oracle.groebner([P("x0^2"), P("x0*x1")]), P("x0"))
    assert s3.is_unit()


def test_saturate_unit_bruteforce_membership():
    # degree <= 4 oracle for the example above: x0^m * 1 must enter the ideal
    ideal = oracle.groebner([P("x0^2"), P("x0*x1")])
    assert normal_form(P("x0^2"), ideal).is_zero()  # so 1 in I : x0^2


def test_saturate_by_general_linear_form():
    st = SplitStream(15).child("sat")
    p = 101
    # saturated ideal of a point stays fixed under saturation
    point = oracle.groebner([P("x1", p), P("x2", p), P("x3", p)], p)
    ell = MultiPoly.linear_form([1, 2, 3, 4], p)
    assert saturate(point, ell) == point
    # an irrelevant-power thickening collapses back to the point
    x0 = P("x0", p)
    thick = oracle.groebner(
        [oracle.poly_mul(f, x0) for f in point.gens]
        + [oracle.poly_mul(P("x0^2", p), P("x1", p))],
        p,
    )
    sat = saturate(thick, x0)
    assert sat == point


def test_saturate_by_nonlinear_polynomial():
    # degree >= 2 saturations go through the iterated-quotient path
    p = 101
    S = saturate(oracle.groebner([P("x0^2*x2", p), P("x0^2*x3", p)], p), P("x0^2", p))
    assert sorted(g.render() for g in S.gens) == ["x2", "x3"]
    S2 = saturate(oracle.groebner([P("x0^3*x1", p)], p), P("x0*x1", p))
    assert S2.is_unit()
    S3 = saturate(oracle.groebner([P("x0*x1^2 + x1^3", p), P("x2", p)], p), P("x1^2", p))
    assert sorted(g.render() for g in S3.gens) == ["x0 + x1", "x2"]


def test_graded_spaces_match_hilbert_function():
    st = SplitStream(16).child("spaces")
    p = 101
    spaces = groebner([random_form(2, p, st) for _ in range(3)], p)
    G = oracle.groebner(spaces.gens, p)
    for t in range(8):
        assert spaces.hf(t) == hilbert_function(G, t)


# ---------------------------------------------------------------------------
# pieces grown from the piece below equal the Macaulay build from scratch

PIECE_TOP = 8


def assert_pieces_match_macaulay(ideal):
    for t in range(PIECE_TOP + 1):
        R, pivots, std = ideal.piece(t)
        R_exp, piv_exp = oracle.macaulay_piece(ideal.gens, t, ideal.p)
        assert pivots == piv_exp, t
        assert np.array_equal(R, R_exp), t
        assert sorted(std + pivots) == list(range(monomial_count(t)))


@hst.composite
def _mixed_ideals(draw):
    """Random homogeneous generators of mixed degrees 0-4, dense or with a
    few terms."""
    p = draw(hst.sampled_from([3, 5, 10007, (1 << 31) - 1]))
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    degrees = draw(hst.lists(hst.integers(1, 4), min_size=1, max_size=4))
    if draw(hst.integers(0, 9)) == 0:
        degrees.append(0)  # a nonzero constant: the unit ideal
    gens = []
    for deg in degrees:
        monos = monomials_of_degree(deg)
        size = draw(hst.sampled_from([1, 2, 3, len(monos) // 2, len(monos)]))
        picked = rng.choice(len(monos), min(max(size, 1), len(monos)), replace=False)
        gens.append(MultiPoly.from_terms({monos[i]: int(rng.integers(1, p)) for i in picked}, p))
    return groebner(gens, p)


@settings(max_examples=80)
@given(_mixed_ideals())
def test_pieces_match_macaulay_build(ideal):
    assert_pieces_match_macaulay(ideal)


# ---------------------------------------------------------------------------
# (S/I) coordinates read off the normal-form tables equal the oracle's rows
# filled and reduced against each piece

TABLE_TOP = 4
PUSH_TOP = 6


def _table_forms(p, rng):
    """The zero form, a nonzero constant, and in degrees 1-3 a one-term
    form and a dense one."""
    forms = [MultiPoly.zero(p), MultiPoly.constant(int(rng.integers(1, p)), p)]
    for deg in (1, 2, 3):
        monos = monomials_of_degree(deg)
        one = monos[int(rng.integers(len(monos)))]
        forms.append(MultiPoly.from_terms({one: int(rng.integers(1, p))}, p))
        forms.append(MultiPoly(deg, [int(rng.integers(0, p)) for _ in monos], p))
    return forms


def assert_table_path_matches_oracle(ideal, rng):
    p = ideal.p
    for t in range(TABLE_TOP + 1):
        rows = rng.integers(0, p, (3, monomial_count(t)))
        rows[0] = 0
        assert np.array_equal(table_coords(ideal, rows, t), oracle.graded_coords(ideal, rows, t))
    forms = _table_forms(p, rng)
    for f in forms:
        for t in range(TABLE_TOP + 1):
            M = ideal.mult_matrix(f, t)
            assert np.array_equal(M, oracle.graded_mult_matrix(ideal, f, t)), (f, t)
            assert M.shape == (ideal.hf(t), ideal.hf(t + f.degree))
    for f in forms + list(ideal.gens):
        assert table_contains(ideal, f) == oracle.graded_contains(ideal, f), f
        if f.is_zero():
            continue
        # f less its normal form lies in the ideal
        row = np.zeros((1, monomial_count(f.degree)), dtype=np.int64)
        oracle.fill_multiples(row, f, 0)
        nf = oracle.graded_coords(ideal, row, f.degree)[0].tolist()
        normal = MultiPoly.from_terms(dict(zip(oracle.graded_std_monomials(ideal, f.degree), nf)), p)
        rest = oracle.poly_sub(f, normal)
        assert table_contains(ideal, rest) and oracle.graded_contains(ideal, rest)
    # the chained pushes by x_h equal one multiplication by x_h^m, m <= 6
    xh = MultiPoly.linear_form([int(c) for c in rng.integers(0, p, 4)], p)
    for t, push in enumerate(_xh_pushes(ideal, xh, PUSH_TOP)):
        power = oracle._poly_power(xh, PUSH_TOP - t)
        assert np.array_equal(push, oracle.graded_mult_matrix(ideal, power, t)), t


@settings(max_examples=60, deadline=None)
@given(_mixed_ideals(), hst.integers(0, 2**32 - 1))
def test_graded_spaces_mult_matrix_matches_normal_form(ideal, seed):
    """Coordinates, mult_matrix, containment and the x_h pushes, read off
    the normal-form tables, against filled rows reduced against the pieces
    (containment against the Macaulay build), at
    p in {3, 5, 10007, 2^31 - 1} (the last takes _safe_matmul's limbs)."""
    assert_table_path_matches_oracle(ideal, np.random.default_rng(seed))


def test_graded_spaces_mult_matrix_matches_normal_form_examples():
    st = SplitStream(17).child("mult")
    p = 101
    spaces = groebner([random_form(2, p, st) for _ in range(3)], p)
    G = oracle.groebner(spaces.gens, p)
    f = random_form(1, p, st)
    t = 2
    M = spaces.mult_matrix(f, t)
    std = oracle.graded_std_monomials(spaces, t)
    index = {m: i for i, m in enumerate(monomials_of_degree(t + 1))}
    for j, m in enumerate(std):
        prod = oracle.term_mul(f, m, 1)
        nf = normal_form(prod, G)
        row = [0] * len(index)
        for mono, c in oracle.terms(nf).items():
            row[index[mono]] = c
        vec = table_coords(spaces, [row], t + 1)[0]
        assert list(vec) == list(M[j])
    rng = np.random.default_rng(17)
    assert_table_path_matches_oracle(spaces, rng)
    # the unit ideal: every quotient piece is zero
    unit = groebner([MultiPoly.constant(3, p)], p)
    assert_table_path_matches_oracle(unit, rng)
    assert unit.mult_matrix(f, 2).shape == (0, 0) and table_contains(unit, f)
    # a monomial ideal at p = 2^31 - 1, with a degree-0 form
    q = (1 << 31) - 1
    monomial = groebner([P("x0*x1", q), P("x2^3", q)], q)
    assert_table_path_matches_oracle(monomial, rng)
    assert np.array_equal(
        monomial.mult_matrix(MultiPoly.constant(5, q), 2), 5 * np.eye(monomial.hf(2), dtype=np.int64)
    )


def test_pieces_match_macaulay_build_examples():
    p = 7
    # the unit ideal: every piece above 0 grows from a full piece
    unit = groebner([MultiPoly.constant(3, p)], p)
    assert_pieces_match_macaulay(unit)
    assert unit.hf(PIECE_TOP) == 0
    # a generator of degree exactly 4 lands in a piece grown from degree 3
    assert_pieces_match_macaulay(groebner([P("x0^2 + x1*x2"), P("x3^4 + x0*x1^3")], p))
    # a linear form whose x3-multiples are not all redundant
    assert_pieces_match_macaulay(groebner([P("x1 + x2 + 4*x3", 5)], 5))
    # a monomial ideal of mixed degrees, and a power of one variable
    assert_pieces_match_macaulay(groebner([P("x0*x1"), P("x2^3"), P("x3^5")], p))
    assert_pieces_match_macaulay(groebner([P("x0^6")], p))


def test_collector_ideals_match_macaulay_build():
    """I_X and I_Y hold the relative pieces that extraction read, built
    when first read; every full piece, lifted onto I_G's, equals the
    Macaulay build of the pieces up to sigma0_G + 1."""
    p = 101
    _, gb = random_gorenstein((1, 3, 3, 1), p, SplitStream(8).child("gorenstein"))
    w = is_reduced_and_split(gb, 5, SplitStream(8).child("w"))
    assert w is not None
    gbx = extract_subscheme(gb, w.ell, w.xh, w.factor)
    gby = residual(gb, gbx)
    for ideal in (gbx, gby):
        assert 0 < max(ideal._pieces) < PIECE_TOP
        gens = oracle.ideal_gens(ideal)  # from the pieces up to sigma0_G + 1
        for t in range(PIECE_TOP + 1):
            R, pivots = oracle.lifted_piece(ideal, t)
            R_exp, piv_exp = oracle.macaulay_piece(gens, t, p)
            assert pivots == piv_exp and np.array_equal(R, R_exp), t
            assert len(pivots) == monomial_count(t) - ideal.hf(t), t


@pytest.mark.parametrize("p", [101, 10007, 32003, (1 << 31) - 1])
def test_pulled_back_pieces_match_macaulay_build(p):
    """The pieces of I_X and I_Y, pulled back from the stable degree when
    first read (below sigma0 = 3 by the pushes of x_h, above it as x_h
    times the piece below) and lifted onto I_G's, equal for t <= 8 the
    Macaulay pieces of the oracle's own ideals: the saturation of
    I_G + (F_d) by x_h, and the colon I_G : I_X by elimination."""
    for attempt in range(10):
        st = SplitStream(13).child("pullback", p, attempt)
        _, gb = random_gorenstein((1, 3, 3, 1), p, st.child("g"))
        w = is_reduced_and_split(gb, 3, st.child("s"))
        if w is not None:
            break
    assert w is not None and gb.stable_degree()[0] == 3
    gbx = extract_subscheme(gb, w.ell, w.xh, w.factor)
    gby = residual(gb, gbx)
    slow_x = oracle.extract_subscheme_by_saturation(gb, w.ell, w.xh, w.factor)
    slow_y = ideal_quotient(oracle.groebner(gb.gens, p), slow_x)
    for sub, slow in ((gbx, slow_x), (gby, slow_y)):
        for t in range(PIECE_TOP, -1, -1):
            R, pivots = oracle.lifted_piece(sub, t)
            R2, pivots2 = oracle.macaulay_piece(slow.gens, t, p)
            assert pivots == pivots2 and np.array_equal(R, R2), (p, t)


@pytest.mark.parametrize("h, d, p", [((1, 3, 3, 1), 5, 101), ((1, 3, 6, 6, 3, 1), 8, 32003)])
def test_sub_ideals_match_graded_spaces(h, d, p):
    """I_X, I_Y and the colon ideal, held over I_G, against GradedSpaces
    built from the oracle's generating set: Hilbert function, stable
    degree, containment by the relative pieces against the oracle's,
    equality and the lifted full pieces."""
    for attempt in range(10):
        st = SplitStream(12).child("sub", attempt)
        _, gb = random_gorenstein(h, p, st.child("g"))
        w = is_reduced_and_split(gb, d, st.child("s"))
        if w is not None:
            break
    assert w is not None
    gbx = extract_subscheme(gb, w.ell, w.xh, w.factor)
    gby = residual(gb, gbx)
    colon = oracle.degreewise_colon(gb, oracle.ideal_gens(gby))
    rng = np.random.default_rng(12)
    assert isinstance(gbx, SubIdeal) and isinstance(gby, SubIdeal)
    assert isinstance(colon, oracle.HeldPieces)
    for sub in (gbx, gby, colon):
        assert sub.base is gb
        gens = oracle.ideal_gens(sub)
        full = groebner(gens, p)
        assert sub.stable_degree() == full.stable_degree()
        for t in range(PIECE_TOP + 1):
            assert sub.hf(t) == full.hf(t), t
            # relative pieces are reduced echelon forms, below sigma0 and above
            R, pivots = sub.relative(t)
            R2, pivots2 = rref(R, p)
            assert pivots == pivots2 and np.array_equal(R, R2), t
            R, pivots = oracle.lifted_piece(sub, t)
            R2, pivots2, _ = full.piece(t)
            assert pivots == pivots2 and np.array_equal(R, R2), t
        forms = gens + list(gb.gens) + [MultiPoly.constant(1, p)]
        for deg in (1, 2, 3, 4):
            monos = monomials_of_degree(deg)
            forms.append(MultiPoly(deg, rng.integers(0, p, len(monos)), p))
            forms.append(MultiPoly(deg, gb.lift(rng.integers(0, p, (1, gb.hf(deg))), deg)[0], p))
            # a combination of the rows of J_deg lies in J
            R = oracle.full_piece(sub, deg)[0]
            member = MultiPoly(deg, rng.integers(0, p, len(R)) @ R % p, p)
            assert relative_contains(sub, member)
            forms.append(member)
        for f in forms:
            assert relative_contains(sub, f) == oracle.graded_contains(full, f), f
        assert oracle.same_ideal(sub, full)
    assert oracle.same_ideal(colon, gbx) and not oracle.same_ideal(gbx, gby)
    assert not oracle.same_ideal(gby, groebner(oracle.ideal_gens(gbx), p))
