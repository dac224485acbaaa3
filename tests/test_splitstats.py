import os
from fractions import Fraction
from itertools import product

import pytest

import partition_oracle as oracle
import sympy_ddf
from gorlink.rng import SplitStream
from gorlink.splitstats import (
    EXACT_CAP,
    LIMIT_CAP,
    RationalPolynomial,
    count_irreducible,
    count_squarefree_with_factor,
    limit_fraction,
    montecarlo_split_fraction,
)
from gorlink.unipoly import (
    UniPoly,
    degree_sums,
    factor_degree_profiles,
    find_factor_of_degree,
    is_squarefree,
    random_monic,
)


def test_count_irreducible_examples():
    assert count_irreducible(1) == RationalPolynomial({1: 1})
    assert count_irreducible(2) == RationalPolynomial({2: Fraction(1, 2), 1: Fraction(-1, 2)})
    assert count_irreducible(2).evaluate(2) == 1  # only x^2+x+1
    assert count_irreducible(6).evaluate(2) == 9
    with pytest.raises(ValueError):
        count_irreducible(0)


def test_count_irreducible_integrality():
    for ell in range(1, 9):
        for q in (2, 3, 5, 7, 9):
            v = count_irreducible(ell).evaluate(q)
            assert v.denominator == 1 and v >= 0


def test_partition_enumeration():
    assert list(oracle.iter_partitions(1)) == [(1,)]
    assert len(list(oracle.iter_partitions(5))) == 7
    assert len(list(oracle.iter_partitions(30))) == 5604
    parts = list(oracle.iter_partitions(6))
    assert len(set(parts)) == len(parts)
    for p in parts:
        assert sum(p) == 6
        assert all(p[i] >= p[i + 1] for i in range(len(p) - 1))


def test_multiplicity_form():
    # the run form of a partition is its factor-degree profile
    assert oracle.runs((3, 2, 2, 1)) == [(3, 1), (2, 2), (1, 1)]
    assert oracle.runs((4,)) == [(4, 1)]
    assert oracle.conjugacy_fraction((3, 2, 2, 1)) == Fraction(1, 3 * 2 * 2**2)


def _reaches(parts, k):
    return (degree_sums(oracle.runs(parts)) >> k) & 1 == 1


def test_has_subpartition():
    assert _reaches((3, 2, 1), 3)
    assert not _reaches((2, 2, 2), 3)
    assert _reaches((2, 2, 2), 4)
    assert _reaches((5,), 0)


def test_exact_a63_coefficients():
    poly = count_squarefree_with_factor(6, 3)
    assert poly.coeffs == {
        6: Fraction(29, 80),
        5: Fraction(-11, 16),
        4: Fraction(5, 16),
        3: Fraction(-5, 16),
        2: Fraction(13, 40),
    }
    assert poly.format() == "29/80 q^6 - 11/16 q^5 + 5/16 q^4 - 5/16 q^3 + 13/40 q^2"


def test_squarefree_count_identity():
    for n in range(1, 9):
        poly = count_squarefree_with_factor(n, 0)
        expected = (
            RationalPolynomial({1: 1})
            if n == 1
            else RationalPolynomial({n: 1, n - 1: -1})
        )
        assert poly == expected


def _bruteforce_count(n, k, q):
    return sum(sympy_ddf.splits(list(tail) + [1], q, k) for tail in product(range(q), repeat=n))


def test_exact_counts_match_bruteforce():
    for q in (2, 3):
        for n in range(1, 6):
            for k in range(0, n + 1):
                assert count_squarefree_with_factor(n, k).evaluate(q) == _bruteforce_count(n, k, q), (n, k, q)


def test_a21_at_q2():
    assert count_squarefree_with_factor(2, 1).evaluate(2) == 1


def test_conjugacy_fractions():
    assert oracle.conjugacy_fraction((5,)) == Fraction(1, 5)
    assert oracle.conjugacy_fraction((1, 1)) == Fraction(1, 2)
    for n in (5, 12, 30):
        total = sum(oracle.conjugacy_fraction(p) for p in oracle.iter_partitions(n))
        assert total == 1


def test_limit_fraction_values():
    assert limit_fraction(2, 1) == Fraction(1, 2)
    # p(30,1) within 1e-6 of 1 - 1/e
    import math

    assert abs(float(limit_fraction(30, 1)) - (1 - math.exp(-1))) < 1e-6
    # p(30,20) leading-term constant from the q-expansion
    assert abs(float(limit_fraction(30, 20)) - 0.385481) < 1e-5


def test_cycle_dp_matches_partition_walk():
    for n in range(1, 17):
        for k in range(0, n + 1):
            assert count_squarefree_with_factor(n, k) == oracle.count_squarefree_with_factor(n, k), (n, k)
            assert limit_fraction(n, k) == oracle.limit_fraction(n, k), (n, k)
    for n, k in ((30, 20), (30, 1)):
        assert count_squarefree_with_factor(n, k) == oracle.count_squarefree_with_factor(n, k), (n, k)
        assert limit_fraction(n, k) == oracle.limit_fraction(n, k), (n, k)
    assert limit_fraction(45, 20) == oracle.limit_fraction(45, 20)


def test_caps():
    with pytest.raises(ValueError):
        limit_fraction(LIMIT_CAP + 1, 1)
    with pytest.raises(ValueError):
        count_squarefree_with_factor(EXACT_CAP + 1, 1)


def test_leading_coefficient_is_limit():
    for n in range(1, 13):
        for k in range(0, n + 1):
            poly = count_squarefree_with_factor(n, k)
            assert poly.degree() == n
            assert poly.leading_coefficient() == limit_fraction(n, k), (n, k)


def test_complement_symmetry():
    # a degree-k factor leaves a degree-(n - k) cofactor, so every partition
    # class that reaches k reaches n - k
    for n in range(1, 15):
        for k in range(0, n + 1):
            assert count_squarefree_with_factor(n, k) == count_squarefree_with_factor(n, n - k), (n, k)
            assert limit_fraction(n, k) == limit_fraction(n, n - k), (n, k)


def test_splits_agrees_with_factor_search():
    st = SplitStream(31).child("splits-vs-search")
    for p in (3, 101, 10007):
        for i in range(40):
            f = random_monic(2 + st.below(20), p, st.child(p, i))
            (profile,) = factor_degree_profiles([f])
            if not is_squarefree(f):
                assert profile is None
                continue
            reach = degree_sums(profile)
            for k in range(f.degree + 1):
                assert (reach >> k) & 1 == (find_factor_of_degree(f, k) is not None), (p, i, k)


def test_rational_polynomial_format():
    poly = RationalPolynomial({3: Fraction(-1, 2), 0: 2, 1: 1})
    assert poly.format() == "-1/2 q^3 + q + 2"
    assert RationalPolynomial({}).format() == "0"


def test_montecarlo_trivial_cases():
    successes, frac = montecarlo_split_fraction(1, 1, 101, 100, seed=0)
    assert successes == 100 and frac == 1
    # exhaustive ground truth at n=2, k=1, q=2 is 1/4; check the predicate
    profiles = factor_degree_profiles(
        [UniPoly([a, b, 1], 2) for a, b in product(range(2), repeat=2)]
    )
    hits = sum(
        profile is not None and (degree_sums(profile) >> 1) & 1 for profile in profiles
    )
    assert Fraction(hits, 4) == Fraction(1, 4)


def test_montecarlo_matches_predicate_on_small_field():
    successes, frac = montecarlo_split_fraction(5, 2, 7, 300, seed=99)
    assert 0 < successes < 300
    expected = count_squarefree_with_factor(5, 2).evaluate(7) / Fraction(7**5)
    assert abs(float(frac) - float(expected)) < 0.1


def test_montecarlo_deterministic_and_worker_independent(monkeypatch):
    a = montecarlo_split_fraction(8, 4, 101, 60, seed=5)
    b = montecarlo_split_fraction(8, 4, 101, 60, seed=5)
    assert a == b
    c = montecarlo_split_fraction(8, 4, 101, 60, seed=6)
    assert a != c  # overwhelmingly likely
    # scheduling across workers must not change the count, and the workers'
    # one-thread BLAS setting must not outlive them
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    parallel = montecarlo_split_fraction(8, 4, 101, 60, seed=5, workers=2)
    assert parallel == a
    assert os.environ["OPENBLAS_NUM_THREADS"] == "3"


def test_montecarlo_exact_near_2_31():
    # every draw of a batch at q = 2^31 - 1 agrees with sympy's distinct-degree
    # factorization; an int64 Frobenius product without a limb split overflows
    n, k, q, trials, seed = 30, 20, 2**31 - 1, 20, 2024
    root = SplitStream(seed).child("montecarlo", n, k, q)
    expected = 0
    for i in range(trials):
        st = root.child(i)
        expected += sympy_ddf.splits([st.below(q) for _ in range(n)] + [1], q, k)
    assert montecarlo_split_fraction(n, k, q, trials, seed) == (
        expected,
        Fraction(expected, trials),
    )
    assert expected > 0
