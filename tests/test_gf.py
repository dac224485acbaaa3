import numpy as np
import pytest

from gorlink.gf import (
    _safe_matmul,
    charpoly_mod_p,
    det_mod_p,
    inv_mod,
    is_odd_prime,
    kernel_basis_array,
    rank,
    rref,
)
from gorlink.rng import SplitStream


def test_is_odd_prime():
    assert is_odd_prime(3) and is_odd_prime(101) and is_odd_prime(10007)
    assert is_odd_prime((1 << 31) - 1)  # Mersenne
    assert not is_odd_prime(2)
    assert not is_odd_prime(1)
    assert not is_odd_prime(10005)
    assert not is_odd_prime(2047)  # strong pseudoprime to base 2 alone
    assert not is_odd_prime(25326001)  # strong pseudoprime to bases 2,3,5


def test_field_inverse_examples():
    assert inv_mod(1, 7) == 1
    assert inv_mod(3, 7) == 5
    assert inv_mod(2, 10007) == 5004
    assert inv_mod(-5, 7) == 4  # residues are taken first
    assert 2 * 5004 % 10007 == 1


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        inv_mod(0, 7)
    with pytest.raises(ZeroDivisionError):
        inv_mod(101, 101)


def test_ring_axioms_randomized():
    # inverses mod p: a * a^-1 = 1, (ab)^-1 = a^-1 b^-1, (a^-1)^-1 = a
    st = SplitStream(17).child("axioms")
    for p in (7, 101, 10007, (1 << 31) - 1):
        for _ in range(50):
            a = 1 + st.below(p - 1)
            b = 1 + st.below(p - 1)
            assert a * inv_mod(a, p) % p == 1
            assert inv_mod(a * b, p) == inv_mod(a, p) * inv_mod(b, p) % p
            assert inv_mod(inv_mod(a, p), p) == a


def _kernel(rows, cols, entries, p):
    A = np.array(entries, dtype=np.int64).reshape(rows, cols)
    return [list(map(int, v)) for v in kernel_basis_array(A, p)]


def test_kernel_examples():
    # identity: empty kernel
    assert _kernel(2, 2, [1, 0, 0, 1], 7) == []
    # zero 2x3: full kernel, canonical unit vectors
    assert _kernel(2, 3, [0] * 6, 7) == [
        [1, 0, 0],
        [0, 1, 0],
        [0, 0, 1],
    ]
    # rank-1 matrix: kernel proportional to (2, -1)
    (v,) = _kernel(2, 2, [1, 2, 2, 4], 7)
    # v = (-2, 1) in canonical form; check proportionality to (2, -1)
    assert (v[0] * 6 - v[1] * 2) % 7 == 0 or (v[0] * (-1) - v[1] * 2) % 7 == 0
    assert (v[0] + 2 * v[1]) % 7 == 0  # lies in the kernel


def test_rank_nullity_random_sizes():
    st = SplitStream(3).child("ranknull")
    p = 101
    for size in (1, 2, 5, 10, 25, 50):
        a = np.array(
            [st.below(p) for _ in range(size * size)], dtype=np.int64
        ).reshape(size, size)
        kernel = kernel_basis_array(a, p)
        assert rank(a, p) + len(kernel) == size
        for v in kernel:
            assert all(int(x) % p == 0 for x in (a @ v) % p)


def test_rref_canonical_and_reduction():
    p = 7
    A = np.array([[2, 4, 1], [1, 2, 3], [3, 6, 4]], dtype=np.int64)
    R, pivots = rref(A, p)
    assert pivots == [0, 2]
    # pivot columns are unit
    assert R[0, 0] == 1 and R[1, 2] == 1 and R[0, 2] == 0
    assert rank(A, p) == 2


def _charpoly_bruteforce(A, p):
    """det(tI - A) by Leibniz expansion; fine for n <= 4."""
    from itertools import permutations

    n = len(A)
    coeffs = [0] * (n + 1)

    def poly_mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
        return out

    def sign(perm):
        s = 1
        seen = [False] * len(perm)
        for i in range(len(perm)):
            if seen[i]:
                continue
            length = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                s = -s
        return s

    for perm in permutations(range(n)):
        term = [1]
        for i in range(n):
            j = perm[i]
            entry = [(-A[i][j]) % p, 1] if i == j else [(-A[i][j]) % p]
            term = poly_mul(term, entry)
        s = sign(perm)
        for e, c in enumerate(term):
            coeffs[e] = (coeffs[e] + s * c) % p
    return coeffs


def test_charpoly_small_against_bruteforce():
    st = SplitStream(9).child("charpoly")
    p = 101
    for n in (1, 2, 3, 4):
        for _ in range(10):
            A = np.array(
                [st.below(p) for _ in range(n * n)], dtype=np.int64
            ).reshape(n, n)
            assert charpoly_mod_p(A, p) == _charpoly_bruteforce(A.tolist(), p)


def test_charpoly_matches_det_and_trace():
    st = SplitStream(10).child("cpdet")
    p = 10007
    for n in (5, 8, 12, 30):
        A = np.array([st.below(p) for _ in range(n * n)], dtype=np.int64).reshape(n, n)
        c = charpoly_mod_p(A, p)
        assert len(c) == n + 1 and c[-1] == 1
        # constant term = (-1)^n det(A), subleading = -trace
        assert c[0] == (-1) ** n * det_mod_p(A, p) % p
        assert c[n - 1] == (-int(A.trace())) % p


def test_matmul_large_modulus_no_overflow():
    p = (1 << 31) - 1
    big = p - 1
    a = np.full((1, 3), big, dtype=np.int64)
    b = np.full((3, 1), big, dtype=np.int64)
    assert _safe_matmul(a, b, p)[0, 0] == 3
    # a long inner dimension, checked against exact Python integers
    st = SplitStream(11).child("matmul")
    a = np.array([[st.below(p) for _ in range(40)] for _ in range(3)], dtype=np.int64)
    b = np.array([[st.below(p) for _ in range(2)] for _ in range(40)], dtype=np.int64)
    exact = [[sum(int(a[i, k]) * int(b[k, j]) for k in range(40)) % p for j in range(2)]
             for i in range(3)]
    assert _safe_matmul(a, b, p).tolist() == exact
    # random shapes, inner dimension up to 200, which needs the limb split
    for trial in range(12):
        rows, inner, cols = 1 + st.below(6), 1 + st.below(200), 1 + st.below(6)
        a = np.array([[st.below(p) for _ in range(inner)] for _ in range(rows)], dtype=np.int64)
        b = np.array([[st.below(p) for _ in range(cols)] for _ in range(inner)], dtype=np.int64)
        exact = [[sum(int(a[i, k]) * int(b[k, j]) for k in range(inner)) % p
                  for j in range(cols)] for i in range(rows)]
        assert _safe_matmul(a, b, p).tolist() == exact, (rows, inner, cols)
    # the split is exact only for inner dimension below 2^16
    with pytest.raises(ValueError):
        _safe_matmul(np.ones((1, 1 << 16), np.int64), np.ones((1 << 16, 1), np.int64), p)
