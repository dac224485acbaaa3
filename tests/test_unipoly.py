from itertools import product

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import sympy_ddf
from gorlink import unipoly
from gorlink.rng import SplitStream
from gorlink.splitstats import count_irreducible
from gorlink.unipoly import (
    NotSquarefreeError,
    UniPoly,
    degree_sums,
    factor_degree_profiles,
    find_factor_of_degree,
    gcd_degree,
    is_squarefree,
    random_monic,
)


def U(coeffs, p):
    return UniPoly(coeffs, p)


def test_is_squarefree_examples():
    assert not is_squarefree(U([0, 0, 1], 2))  # x^2
    assert is_squarefree(U([0, 1, 1], 2))  # x^2 + x = x(x+1)
    assert is_squarefree(U([1, 1, 1], 2))  # x^2 + x + 1 irreducible
    with pytest.raises(ValueError):
        is_squarefree(UniPoly([], 5))


def test_degree_profile_examples():
    # x^2 + x over GF(2) = x (x+1)
    assert factor_degree_profiles([U([0, 1, 1], 2)]) == [[(1, 2)]]
    assert find_factor_of_degree(U([0, 1, 1], 2), 1) == U([0, 1], 2)
    # x^2 + 1 over GF(2) = (x+1)^2
    assert factor_degree_profiles([U([1, 0, 1], 2)]) == [None]
    # x^6 - 1 over GF(7): six distinct linear factors, x + 1 first
    assert factor_degree_profiles([U([6, 0, 0, 0, 0, 0, 1], 7)]) == [[(1, 6)]]
    assert find_factor_of_degree(U([6, 0, 0, 0, 0, 0, 1], 7), 1) == U([1, 1], 7)


def test_entry_points_require_monic_nonconstant():
    for f in (U([2, 4], 7), U([3], 7)):
        with pytest.raises(ValueError):
            factor_degree_profiles([f])
        with pytest.raises(ValueError):
            find_factor_of_degree(f, 1)


@pytest.mark.parametrize("p", [4, 9, 2**61 - 1])
def test_entry_points_reject_bad_modulus(p):
    # the profile at p = 9 used to report a negative count, and the call at
    # 2^61 - 1 failed deep inside the matrix product
    f = U([3, 1, 4, 1, 5, 9, 2, 6, 1], p)
    with pytest.raises(ValueError):
        is_squarefree(f)
    with pytest.raises(ValueError):
        factor_degree_profiles([f])
    with pytest.raises(ValueError):
        find_factor_of_degree(f, 2)
    with pytest.raises(ValueError):
        gcd_degree(f, f)


def _all_monic(p, n):
    for tail in product(range(p), repeat=n):
        yield UniPoly(list(tail) + [1], p)


def test_irreducible_counts_match_gauss_over_gf2():
    # exhaustive enumeration, degrees 1..6, against N(ell, 2)
    for ell in range(1, 7):
        profiles = factor_degree_profiles(_all_monic(2, ell))
        assert profiles.count([(ell, 1)]) == count_irreducible(ell).evaluate(2)


def test_squarefree_agrees_with_multiplicities():
    st = SplitStream(5).child("sfcheck")
    for p in (2, 3, 101):
        for trial in range(60):
            f = random_monic(1 + st.below(12), p, st.child(p, trial))
            assert sympy_ddf.is_squarefree(f.coeffs, p) == is_squarefree(f)


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
        for g in sympy_ddf.factors(f.coeffs, p):
            expected[len(g) - 1] = expected.get(len(g) - 1, 0) + 1
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
    # x(x+1)(x^2+x+1) = x^4 + x over GF(2): degree-2 subset beats the
    # irreducible quadratic
    f = U([0, 1, 0, 0, 1], 2)
    assert find_factor_of_degree(f, 2) == U([0, 1, 1], 2)  # x^2 + x
    # an irreducible quintic, x^5 + x^2 + 1, has no degree-2 factor
    irred5 = U([1, 0, 1, 0, 0, 1], 2)
    assert factor_degree_profiles([irred5]) == [[(5, 1)]]
    assert find_factor_of_degree(irred5, 2) is None
    # degree 0 always works to give the constant 1
    assert find_factor_of_degree(f, 0) == UniPoly.one(2)


def test_find_factor_rejects_non_squarefree():
    with pytest.raises(NotSquarefreeError):
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
        assert g.degree == 3 and sympy_ddf.remainder(f.coeffs, g.coeffs, p) == ()


def _least_factors(factors):
    """For every d, the lexicographically least sub-multiset of the
    canonical factor list with degree sum d, as its list of factors."""
    reach = [1] * (len(factors) + 1)
    for i in range(len(factors) - 1, -1, -1):
        reach[i] = reach[i + 1] | reach[i + 1] << len(factors[i]) - 1
    least = []
    for d in range(sum(len(g) - 1 for g in factors) + 1):
        if not reach[0] >> d & 1:
            least.append(None)
            continue
        taken = []
        for i, g in enumerate(factors):
            if len(g) - 1 <= d and reach[i + 1] >> (d - len(g) + 1) & 1:
                taken.append(g)
                d -= len(g) - 1
        least.append(taken)
    return least


@settings(max_examples=60)
@given(_monic_polys())
def test_find_factor_of_degree_matches_full_factorization(poly):
    coeffs, p = poly
    f = UniPoly(coeffs, p)
    assume(is_squarefree(f))
    for d, taken in enumerate(_least_factors(sympy_ddf.factors(coeffs, p))):
        g = find_factor_of_degree(f, d)
        assert (None if g is None else g.coeffs) == (
            None if taken is None else sympy_ddf.product(taken, p)
        ), d


@settings(max_examples=60)
@given(st.sampled_from([2, 3, 101, 10007, 2**31 - 1]), st.integers(1, 30), st.data())
def test_gcd_rows_match_sympy(p, width, data):
    # pairs of rows of one width, some of them zero, in one stack
    row = st.one_of(
        st.just([0] * width), st.lists(st.integers(0, p - 1), min_size=width, max_size=width)
    )
    pairs = data.draw(st.lists(st.tuples(row, row), min_size=1, max_size=8))
    A = np.array([a for a, _ in pairs], dtype=np.int64)
    B = np.array([b for _, b in pairs], dtype=np.int64)
    degrees, rows = unipoly._gcd_rows(A, B, p)
    for (a, b), deg, last in zip(pairs, degrees.tolist(), rows):
        expected = sympy_ddf.gcd(a, b, p)
        assert deg == len(expected) - 1
        if deg >= 0:
            monic = [int(c) * pow(int(last[0]), -1, p) % p for c in last[deg::-1]]
            assert tuple(monic) == expected
