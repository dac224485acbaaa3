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
    is_squarefree,
    random_monic,
    squarefree_gcd_degree,
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
        squarefree_gcd_degree(f, f)


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
            squarefree = sympy_ddf.is_squarefree(f.coeffs, p)
            assert squarefree == is_squarefree(f)
            # with a factor of f, or a random g: one stack answers both
            if squarefree and trial % 2:
                g = sympy_ddf.factors(f.coeffs, p)[0]
            else:
                g = random_monic(st.below(8), p, st.child("g", p, trial)).coeffs
            expected = len(sympy_ddf.gcd(f.coeffs, list(g), p)) - 1
            assert squarefree_gcd_degree(f, U(g, p)) == (is_squarefree(f), expected)


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


def _next_irreducible(tail, p, taken):
    """The first monic irreducible x^e + tail, stepping the tail as a
    base-p number, that is not in taken."""
    e = len(tail)
    value = sum(c * p**i for i, c in enumerate(tail))
    while True:
        coeffs = tuple(value // p**i % p for i in range(e)) + (1,)
        if coeffs not in taken and sympy_ddf.degree_profile(coeffs, p) == [(e, 1)]:
            return coeffs
        value = (value + 1) % p**e


@st.composite
def _one_degree_classes(draw):
    """Distinct monic irreducibles, r >= 2 of one degree e and maybe one of
    degree e + 1, so that a factor of degree j * e, 0 < j < r, takes the
    class of degree e in part."""
    p = draw(st.sampled_from([2, 3, 10007, 2**31 - 1]))
    e = draw(st.integers(1, 3))
    available = int(count_irreducible(e).evaluate(p))
    assume(available >= 2)
    tails = st.lists(st.integers(0, p - 1), min_size=e, max_size=e)
    factors = []
    for _ in range(draw(st.integers(2, min(available, 5)))):
        factors.append(_next_irreducible(draw(tails), p, factors))
    if draw(st.booleans()):
        factors.append(_next_irreducible(draw(tails) + [0], p, factors))
    return factors, p


@settings(max_examples=40, deadline=None)
@given(_one_degree_classes())
def test_equal_degree_split_matches_sympy(case):
    factors, p = case
    coeffs = sympy_ddf.product(factors, p)
    assert sympy_ddf.factors(coeffs, p) == sorted(factors, key=lambda g: (len(g), g))
    f = UniPoly(coeffs, p)
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
