import ctypes

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from gorlink._workers import worker_pool
from gorlink.gf import (
    _LEAF,
    _one_blas_thread,
    _safe_matmul,
    charpoly_mod_p,
    extend_rref,
    inv_mod,
    is_odd_prime,
    kernel_basis_array,
    reduce_rows,
    rref,
    rref_unit_triangular,
)
from gorlink.rng import SplitStream
from gf_reference import det_mod_p, reduce_rows as ref_reduce_rows, rref as ref_rref
from groebner_oracle import rank


def test_is_odd_prime():
    assert is_odd_prime(3) and is_odd_prime(101) and is_odd_prime(10007)
    assert is_odd_prime((1 << 31) - 1)  # Mersenne
    assert not is_odd_prime(2)
    assert not is_odd_prime(1)
    assert not is_odd_prime(10005)
    assert not is_odd_prime(2047)  # strong pseudoprime to base 2 alone
    assert not is_odd_prime(25326001)  # strong pseudoprime to bases 2,3,5
    assert not is_odd_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7
    assert not is_odd_prime(3825123056546413051)  # to every prime base up to 23
    assert is_odd_prime((1 << 61) - 1)


def test_field_inverse_examples():
    assert inv_mod(1, 7) == 1
    assert inv_mod(3, 7) == 5
    assert inv_mod(2, 10007) == 5004
    assert inv_mod(-5, 7) == 4  # residues are taken first
    assert 2 * 5004 % 10007 == 1


def _openblas(verb):
    """numpy's own OpenBLAS `get` or `set` of its thread count, found
    through the library numpy loaded; skips under another BLAS."""
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            call = getattr(lib, "%s_%s_num_threads%s" % (prefix, verb, suffix), None)
            if call is not None:
                return call
    pytest.skip("numpy is not built on OpenBLAS")


def _worker_blas_threads():
    return _openblas("get")()


def test_import_runs_one_blas_thread():
    # numpy's OpenBLAS starts a pool as wide as the machine
    assert _openblas("get")() == 1


def test_blas_pin_without_openblas_does_nothing(tmp_path):
    get, set_threads = _openblas("get"), _openblas("set")
    set_threads(2)
    try:
        threads = get()
        # a library that links no OpenBLAS, and a path with no library
        for path in (np.random._generator.__file__, str(tmp_path / "libopenblas.so")):
            _one_blas_thread(path)
            assert get() == threads
        _one_blas_thread(np.linalg._umath_linalg.__file__)
        assert get() == 1
    finally:
        set_threads(1)


def test_worker_pool_workers_run_one_blas_thread(monkeypatch):
    _openblas("get")
    # a spawned worker's OpenBLAS starts as wide as this asks, up to the
    # core count; importing gf in the worker pins it to one thread
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    with worker_pool(2) as pool:
        assert pool.submit(_worker_blas_threads).result() == 1


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


# primes just below 2^20, 2^26 and 2^28, where the float64 regime of
# _safe_matmul ends before inner dimension 8193, 3 and 1
BOUNDARY_PRIMES = [3, 10007, 1048573, 67108859, 268435399, (1 << 31) - 1]


def _inner_dimensions(p, rng):
    """Inner dimensions just below and just above the first K with
    K (p - 1)^2 >= 2^53, or random ones up to 300 where that K is out of
    reach; at p = 2^31 - 1 also 31, 32, 63 and 64, where the limbs narrow
    from 17 to 16 bits and then become 3 instead of 2."""
    first_limb = -(-(1 << 53) // ((p - 1) ** 2))
    if first_limb <= 1 << 14:
        dims = [first_limb - 1, first_limb, first_limb + 1]
        return dims + [31, 32, 63, 64] if p == (1 << 31) - 1 else dims
    return list(rng.integers(1, 301, 3))


def _exact_product(A, B, p):
    return np.matmul(A.astype(object), B.astype(object)) % p


@settings(max_examples=12)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2), st.integers(0, 2**32 - 1))
def test_matmul_exact_across_float_bound(m, n, depth, seed):
    """Against Python integers, for every prime and shape, as matrices
    (depth 0) or as stacks of them up to two axes deep: entries uniform,
    from the top 64 residues (sums just past the bound, odd products among
    them) and all p - 1 (the largest sums)."""
    rng = np.random.default_rng(seed)
    stack = tuple(int(s) for s in rng.integers(1, 4, depth))
    for p in BOUNDARY_PRIMES:
        assert is_odd_prime(p)
        for K in _inner_dimensions(p, rng):
            for low in (0, max(p - 64, 0), p - 1):
                A, B = rng.integers(low, p, stack + (m, K)), rng.integers(low, p, stack + (K, n))
                exact = _exact_product(A, B, p)
                assert _safe_matmul(A, B, p).tolist() == exact.tolist(), (p, K, low, stack)


def test_matmul_longest_limb_split():
    """K = 2^16 - 1 at p = 2^31 - 1 takes 6-bit limbs, 6 of them: exact on
    a stack against Python integers; K = 2^16 is out of reach."""
    p = (1 << 31) - 1
    K = (1 << 16) - 1
    rng = np.random.default_rng(16)
    for low in (0, p - 64):
        A, B = rng.integers(low, p, (2, 2, K)), rng.integers(low, p, (2, K, 3))
        assert _safe_matmul(A, B, p).tolist() == _exact_product(A, B, p).tolist(), low
    with pytest.raises(ValueError):
        _safe_matmul(np.ones((2, 1, 1 << 16), np.int64), np.ones((2, 1 << 16, 1), np.int64), p)


# ---------------------------------------------------------------------------
# properties against sympy's DomainMatrix over GF(p)

PRIMES = [3, 10007, (1 << 31) - 1]


@st.composite
def _matrices(draw, max_side=3 * _LEAF):
    """(A, p, rng): a matrix up to three row blocks tall and as wide, of
    drawn rank, with some columns zeroed and some rows repeated."""
    p = draw(st.sampled_from(PRIMES))
    m = draw(st.integers(0, max_side))
    n = draw(st.integers(0, max_side))
    r = draw(st.integers(0, min(m, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    left = rng.integers(0, p, (m, r)).astype(object)
    right = rng.integers(0, p, (r, n)).astype(object)
    A = np.array(left.dot(right) % p if r else np.zeros((m, n)), dtype=np.int64)
    if n and draw(st.booleans()):
        A[:, rng.integers(0, n, 1 + n // 4)] = 0
    if m > 1 and draw(st.booleans()):
        A[rng.integers(0, m, 1 + m // 4)] = A[rng.integers(0, m)]
    return A, p, rng


def _domain_matrix(A, p):
    K = GF(p)
    return DomainMatrix([[K(int(x)) for x in row] for row in A.tolist()], A.shape, K)


def _sympy_rref(A, p):
    R, pivots = _domain_matrix(A, p).rref()
    return [[int(x) % p for x in row] for row in R.to_list()[: len(pivots)]], list(pivots)


@settings(max_examples=40)
@given(_matrices())
def test_elimination_matches_sympy(case):
    A, p, rng = case
    m, n = A.shape
    R_exp, piv_exp = _sympy_rref(A, p)
    R, pivots = rref(A, p)
    assert pivots == piv_exp
    assert R.tolist() == R_exp
    assert rank(A, p) == len(piv_exp)

    # reduction: v minus v[pivot i] times row i of sympy's RREF, for each i
    V = rng.integers(0, p, (1 + m // 8, n))
    expected = []
    for v in V.tolist():
        w = list(v)
        for i, col in enumerate(piv_exp):
            c = v[col]
            w = [(x - c * y) % p for x, y in zip(w, R_exp[i])]
        expected.append(w)
    assert reduce_rows(V, R, pivots, p).tolist() == expected

    # kernel: the basis sympy's RREF gives, and A times it is zero
    free = [c for c in range(n) if c not in piv_exp]
    basis = kernel_basis_array(A, p)
    exp_basis = [[0] * n for _ in free]
    for i, fc in enumerate(free):
        exp_basis[i][fc] = 1
        for r, pc in enumerate(piv_exp):
            exp_basis[i][pc] = -R_exp[r][fc] % p
    assert basis.tolist() == exp_basis
    product = A.astype(object).dot(basis.T.astype(object)) % p
    assert not product.any()

    # the row space, and so its echelon form, ignores the order of the rows
    R_perm, piv_perm = rref(A[rng.permutation(m)], p)
    assert piv_perm == piv_exp and R_perm.tolist() == R_exp


@settings(max_examples=40)
@given(_matrices(), st.integers(0, 3 * _LEAF))
def test_extend_rref_matches_rref(case, split):
    """Folding rows into an RREF in hand equals the RREF of the stack, and
    leaves the RREF in hand as it was."""
    A, p, rng = case
    R, pivots = rref(A[:split], p)
    R_before, piv_before = R.copy(), list(pivots)
    V = A[split:]
    R2, piv2 = extend_rref(R, pivots, V, p)
    R_exp, piv_exp = rref(np.concatenate([R, V]), p)
    assert piv2 == piv_exp and np.array_equal(R2, R_exp)
    assert np.array_equal(R, R_before) and pivots == piv_before
    # the same row space as A, so the same form
    R_all, piv_all = rref(A, p)
    assert piv2 == piv_all and np.array_equal(R2, R_all)


@pytest.mark.parametrize("p", [10007, (1 << 31) - 1])
@pytest.mark.parametrize("height", [0, 1, 31, 32, 33, 100])
def test_rref_unit_triangular_matches_rref(height, p):
    """Rows leading with 1 in increasing columns, one to three triangle
    blocks tall; at 2**31 - 1 every product takes the limb path."""
    rng = np.random.default_rng(height)
    width = height + 40
    cols = np.sort(rng.choice(width, height, replace=False))
    U = rng.integers(0, p, (height, width)) * (rng.random((height, width)) < 0.5)
    U[np.arange(width) <= cols[:, None]] = 0
    U[np.arange(height), cols] = 1
    U_before = U.copy()
    R, pivots = rref_unit_triangular(U, cols.tolist(), p)
    R_exp, piv_exp = rref(U, p)
    assert pivots == piv_exp == cols.tolist()
    assert np.array_equal(R, R_exp)
    assert np.array_equal(U, U_before)


@settings(max_examples=30)
@given(_matrices(max_side=24))
def test_charpoly_matches_sympy(case):
    A, p, _ = case
    n = min(A.shape)
    A = A[:n, :n]
    if n == 0:
        assert charpoly_mod_p(A, p) == [1]
        return
    expected = [int(c) % p for c in reversed(_domain_matrix(A, p).charpoly())]
    assert charpoly_mod_p(A, p) == expected


def test_rref_matches_reference_on_macaulay_shapes():
    """Tall and wide sparse inputs, several row blocks each, against the
    one-pivot-per-step reference (gf_reference)."""
    rng = np.random.default_rng(12)
    for p in PRIMES:
        for m, n in ((260, 230), (120, 40), (33, 33), (40, 200)):
            A = rng.integers(0, p, (m, n)) * (rng.random((m, n)) < 0.15)
            A[rng.integers(m)] = A[rng.integers(m)]
            R, pivots = rref(A, p)
            R_ref, piv_ref = ref_rref(A, p)
            assert pivots == piv_ref and np.array_equal(R, R_ref)
            V = rng.integers(0, p, (7, n))
            assert np.array_equal(reduce_rows(V, R, pivots, p), ref_reduce_rows(V, R_ref, piv_ref, p))
