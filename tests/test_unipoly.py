from itertools import product

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import sympy_ddf
from gorlink.rng import SplitStream
from gorlink.splitstats import count_irreducible
from gorlink.unipoly import (
    UniPoly,
    degree_sums,
    factor,
    factor_degree_profiles,
    find_factor_of_degree,
    is_squarefree,
    random_monic,
)


def U(coeffs, p):
    return UniPoly(coeffs, p)


def test_arithmetic_basics():
    p = 7
    f = U([1, 2, 1], p)  # (x+1)^2
    g = U([1, 1], p)
    q, r = divmod(f, g)
    assert q == g and r.is_zero()
    assert f.gcd(g) == g
    assert f.derivative() == U([2, 2], p)
    assert f.evaluate(6) == 0  # x = -1


def test_is_squarefree_examples():
    assert not is_squarefree(U([0, 0, 1], 2))  # x^2
    assert is_squarefree(U([0, 1, 1], 2))  # x^2 + x = x(x+1)
    assert is_squarefree(U([1, 1, 1], 2))  # x^2 + x + 1 irreducible
    with pytest.raises(ValueError):
        is_squarefree(UniPoly.zero(5))


def test_factor_examples():
    # x^2 + x over GF(2) = x (x+1)
    fs = factor(U([0, 1, 1], 2))
    assert fs == [(U([0, 1], 2), 1), (U([1, 1], 2), 1)]
    # x^2 + 1 over GF(2) = (x+1)^2
    assert factor(U([1, 0, 1], 2)) == [(U([1, 1], 2), 2)]
    # x^6 - 1 over GF(7): six distinct linear factors
    fs = factor(U([6, 0, 0, 0, 0, 0, 1], 7))
    assert len(fs) == 6
    assert all(g.degree == 1 and m == 1 for g, m in fs)


def test_factor_requires_monic_nonconstant():
    with pytest.raises(ValueError):
        factor(U([2, 4], 7))
    with pytest.raises(ValueError):
        factor(U([3], 7))


def test_factor_roundtrip_random():
    st = SplitStream(123).child("roundtrip")
    p = 10007
    for trial in range(1000):
        n = 1 + st.below(30)
        f = random_monic(n, p, st.child(trial))
        prod = UniPoly.one(p)
        for g, mult in factor(f):
            assert g.is_monic()
            for _ in range(mult):
                prod = prod * g
        assert prod == f


def test_factor_canonical_order_is_stable():
    p = 101
    f = U([1, 0, 0, 0, 0, 0, 1], p) * U([5, 1], p)
    assert factor(f) == factor(f)
    keys = [g.sort_key() for g, _ in factor(f)]
    assert keys == sorted(keys)


def _all_monic(p, n):
    from itertools import product

    for tail in product(range(p), repeat=n):
        yield UniPoly(list(tail) + [1], p)


def test_irreducible_counts_match_gauss_over_gf2():
    # exhaustive enumeration, degrees 1..6, against N(ell, 2)
    for ell in range(1, 7):
        count = 0
        for f in _all_monic(2, ell):
            fs = factor(f)
            if len(fs) == 1 and fs[0][1] == 1 and fs[0][0] == f:
                count += 1
        assert count == count_irreducible(ell).evaluate(2)


def test_squarefree_agrees_with_multiplicities():
    st = SplitStream(5).child("sfcheck")
    for p in (2, 3, 101):
        for trial in range(60):
            f = random_monic(1 + st.below(12), p, st.child(p, trial))
            sf = all(m == 1 for _, m in factor(f))
            assert sf == is_squarefree(f)


def test_degree_profile_matches_factorization():
    st = SplitStream(6).child("profile")
    p = 101
    done = 0
    trial = 0
    while done < 40:
        f = random_monic(2 + st.below(15), p, st.child(trial))
        trial += 1
        if not is_squarefree(f):
            continue
        done += 1
        expected = {}
        for g, _ in factor(f):
            expected[g.degree] = expected.get(g.degree, 0) + 1
        assert factor_degree_profiles([f]) == [sorted(expected.items())]


@st.composite
def _monic_polys(draw):
    p = draw(st.sampled_from([2, 3, 101, 10007, 2**31 - 1]))
    n = draw(st.integers(1, 40))
    tail = draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
    return tail + [1], p


@st.composite
def _monic_stacks(draw):
    p = draw(st.sampled_from([2, 3, 101, 10007, 2**31 - 1]))
    n = draw(st.integers(1, 40))
    tail = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    return [t + [1] for t in draw(st.lists(tail, min_size=1, max_size=6))], p


def _derivative_free_stack(p):
    """x^(2p) + a x^p + b for every a, b (derivative 0, never square-free),
    then two square-free rows of degree 2p."""
    rows = [[b] + [0] * (p - 1) + [a] + [0] * (p - 1) + [1] for a in range(p) for b in range(p)]
    return rows + [[1, 1] + [0] * (2 * p - 2) + [1], [0, 1] + [0] * (2 * p - 2) + [1]], p


@settings(max_examples=60)
@given(_monic_stacks())
@example(_derivative_free_stack(2))
@example(_derivative_free_stack(3))
def test_degree_profile_matches_sympy(stack):
    rows, p = stack
    expected = [sympy_ddf.degree_profile(coeffs, p) for coeffs in rows]
    assert factor_degree_profiles([UniPoly(coeffs, p) for coeffs in rows]) == expected


@settings(max_examples=100)
@given(st.lists(st.tuples(st.integers(1, 7), st.integers(0, 3)), max_size=5))
def test_degree_sums_matches_subset_sums(profile):
    # every choice of how many factors to take from each (degree, count) class
    sums = {
        sum(deg * c for (deg, _), c in zip(profile, choice))
        for choice in product(*(range(count + 1) for _, count in profile))
    }
    mask = degree_sums(profile)
    assert {s for s in range(mask.bit_length()) if (mask >> s) & 1} == sums


def test_find_factor_of_degree():
    # x(x+1)(x^2+x+1) over GF(2): degree-2 subset beats the irreducible quadratic
    f = U([0, 1], 2) * U([1, 1], 2) * U([1, 1, 1], 2)
    assert find_factor_of_degree(f, 2) == U([0, 1, 1], 2)  # x^2 + x
    # an irreducible quintic has no degree-2 factor
    irred5 = None
    for tail in range(32):
        cand = UniPoly([tail & 1, tail >> 1 & 1, tail >> 2 & 1, tail >> 3 & 1, tail >> 4 & 1, 1], 2)
        fs = factor(cand)
        if len(fs) == 1 and fs[0][1] == 1 and fs[0][0].degree == 5:
            irred5 = cand
            break
    assert irred5 is not None
    assert find_factor_of_degree(irred5, 2) is None
    # degree 0 always works to give the constant 1
    assert find_factor_of_degree(f, 0) == UniPoly.one(2)


def test_find_factor_rejects_non_squarefree():
    with pytest.raises(ValueError):
        find_factor_of_degree(U([1, 0, 1], 2), 1)  # (x+1)^2


def test_find_factor_product_divides():
    st = SplitStream(8).child("ffd")
    p = 10007
    found = 0
    trial = 0
    while found < 25:
        f = random_monic(8, p, st.child(trial))
        trial += 1
        if not is_squarefree(f):
            continue
        g = find_factor_of_degree(f, 3)
        if g is None:
            continue
        found += 1
        assert g.degree == 3 and (f % g).is_zero()


def _least_factor_of_degree(f, d):
    """The lexicographically least sub-multiset of the canonical factor list
    with degree sum d, by the greedy over the full factorization."""
    factors = [g for g, _ in factor(f)]
    reach = [1] * (len(factors) + 1)
    for i in range(len(factors) - 1, -1, -1):
        reach[i] = reach[i + 1] | reach[i + 1] << factors[i].degree
    if not reach[0] >> d & 1:
        return None
    out = UniPoly.one(f.p)
    for i, g in enumerate(factors):
        if g.degree <= d and reach[i + 1] >> (d - g.degree) & 1:
            out = out * g
            d -= g.degree
    return out


@settings(max_examples=60)
@given(_monic_polys(), st.integers(1, 40))
def test_find_factor_of_degree_matches_full_factorization(poly, d):
    coeffs, p = poly
    assume(p < 2**31 - 1)  # the reference factors completely; keep it quick
    f = UniPoly(coeffs, p)
    assume(is_squarefree(f) and d <= f.degree)
    assert find_factor_of_degree(f, d) == _least_factor_of_degree(f, d)
