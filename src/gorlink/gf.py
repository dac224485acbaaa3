"""Exact arithmetic in GF(p) and dense linear algebra mod p.

Elements are canonical residues in [0, p) for an odd prime p < 2**31.
Matrices are numpy int64 arrays; with p below 2**31, a product of two
residues fits in an int64.  Matrix products, and stacks of them, go
through _safe_matmul, which multiplies in float64 through BLAS (Dumas,
Giorgi and Pernet, FFLAS-FFPACK, 2008).  When K * (p - 1)**2 < 2**53,
K the inner dimension, one product does: every partial sum is then an
integer a double holds exactly, so the product is exact in any summation
order; at p = 10007 that covers every K below about 9 * 10**7.  Above
that bound the left factor is split into limbs whose width is set by K
and p so that each limb product is exact in float64 too (2 limbs at
p = 2**31 - 1 for K < 64), exact while K < 2**16.  Residues are reduced
with a floor division by p, which numpy does several times faster than
its remainder.

Importing this module sets numpy's OpenBLAS to one thread for the whole
process, spawned workers included, since each imports it too.  The
products are small (a graded piece is at most a few hundred monomials
wide), so a second thread burns CPU time without shortening the run, and
exactness does not depend on how a product's sums are split across
threads.

Pivoting takes the first nonzero entry in a column (arithmetic is exact,
no magnitude concerns), and the reduced row echelon form of a row space
is unique, so every echelon form here is canonical, whatever the order of
the steps that computed it.  One block loop, _rref_onto, folds rows into
an echelon form in hand, _LEAF rows at a time, with matrix products doing
most of the work (Dumas, Giorgi and Pernet, FFLAS-FFPACK, 2008; Jeannerod,
Pernet and Storjohann, 2013): one product reduces a block against the
echelon form so far, Gauss-Jordan eliminates what is left of the block a
column at a time, and one more product clears the block's new pivot
columns from the earlier rows.  rref folds its rows into an empty form,
extend_rref into a copy of a given one.  Rows that already lead with 1s
in distinct columns need no pivot search at all: rref_unit_triangular
inverts each block's unit triangle by repeated squaring and clears the
block from the rows above by one product.

reduce_rows needs its (R, pivots) in reduced echelon form: then
R[:, pivots] is the identity, the coefficient of row i in the reduction of
v is v[pivots[i]], untouched by the other rows, and the reduction of the
rows of V is the single product V - V[:, pivots] @ R.
"""

import ctypes
import functools

import numpy as np

__all__ = [
    "is_odd_prime",
    "check_modulus",
    "inv_mod",
    "rref",
    "extend_rref",
    "rref_unit_triangular",
    "reduce_rows",
    "kernel_basis_array",
    "rank",
    "charpoly_mod_p",
]

_P_LIMIT = 1 << 31


def is_odd_prime(p):
    """Deterministic Miller-Rabin, valid for all p < 2**64."""
    if p < 3 or p % 2 == 0:
        return False
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):  # deterministic below 3.1e23
        if a % p == 0:
            continue
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@functools.lru_cache(maxsize=None)
def check_modulus(p):
    """p, once it is known to be an odd prime below 2**31.  Memoized per p;
    a bad p raises ValueError every time, since an exception is not cached."""
    if not (3 <= p < _P_LIMIT) or not is_odd_prime(p):
        raise ValueError("modulus must be an odd prime below 2**31, got %r" % (p,))
    return p


def inv_mod(a, p):
    """Multiplicative inverse of a mod p via extended Euclid."""
    a %= p
    if a == 0:
        raise ZeroDivisionError("inverse of zero in GF(%d)" % p)
    # pow with negative exponent uses extended Euclid internally (3.8+)
    return pow(a, -1, p)


# ---------------------------------------------------------------------------
# dense linear algebra on int64 arrays, entries in [0, p)

# Row-block height of the blocked elimination in rref.
_LEAF = 32


def _reduce(a, p):
    """a mod p, in place on the int64 array a; returns a.

    numpy divides by a scalar far faster than it takes a remainder, and the
    in-place steps allocate one temporary instead of several.
    """
    q = a // p
    q *= p
    a -= q
    return a


def _gauss_jordan(R, p):
    """Gauss-Jordan elimination in place, one pivot column at a time.

    Returns the pivot columns; pivot rows are swapped to the top in pivot
    order, so R[:len(pivots)] is the reduced echelon form.
    """
    nrows = R.shape[0]
    pivots = []
    row = 0
    for col in range(R.shape[1]):
        if row >= nrows:
            break
        nz = R[row:, col].nonzero()[0]
        if not nz.size:
            continue
        pr = row + int(nz[0])
        if pr != row:
            R[[row, pr]] = R[[pr, row]]
        pivot_row = R[row] * inv_mod(int(R[row, col]), p) % p
        # every row nonzero in this column, the pivot row too, which the
        # update zeroes and the next line restores
        others = R[:, col].nonzero()[0]
        block = R[others]
        block -= block[:, col, None] * pivot_row
        R[others] = _reduce(block, p)
        R[row] = pivot_row
        pivots.append(col)
        row += 1
    return pivots


def _eliminate(V, R, cols, p):
    """V - V[:, cols] @ R mod p, in place on V; returns V.

    With (R, cols) in reduced echelon form this is the reduction of the
    rows of V against R (see the module docstring).
    """
    V -= _safe_matmul(V[:, cols], R, p)
    return _reduce(V, p)


def _rref_onto(R, pivots, W, p):
    """Fold the rows of W into the RREF (R, pivots), _LEAF rows at a time.

    W holds residues and is consumed, and R may be written in place.
    Returns the RREF of the rows of R and W together.  Each block of W is
    reduced against the echelon form so far by one matrix product, what is
    left of it is eliminated a column at a time, and its new pivot columns
    are cleared from the earlier rows by one more product.
    """
    for r0 in range(0, W.shape[0], _LEAF):
        B = W[r0 : r0 + _LEAF]
        if pivots:
            B = _eliminate(B, R, pivots, p)
            B = B[B.any(axis=1)]
        new = _gauss_jordan(B, p)
        if not new:
            continue
        # B is zero on the old pivot columns, so its echelon rows need no
        # further reduction; the old rows lose the new pivot columns
        B = B[: len(new)]
        if not pivots:
            R, pivots = B, new
            continue
        R = _eliminate(R, B, new, p)
        pivots += new
        order = np.argsort(pivots)
        R = np.concatenate([R, B])[order]
        pivots = [pivots[i] for i in order]
    return R, pivots


def rref(A, p):
    """Reduced row echelon form mod p.

    Returns (R, pivots) where pivots is the list of pivot column indices,
    one per nonzero row of R, in increasing order.  Column order is the
    caller's.  The reduced echelon form of a row space is unique, so the
    result does not depend on how it is computed: the rows are folded, in
    blocks of _LEAF, into an echelon form that starts empty (_rref_onto).
    """
    W = _reduce(np.array(A, dtype=np.int64), p)
    if W.ndim != 2:
        raise ValueError("matrix expected")
    return _rref_onto(W[:0], [], W, p)


def extend_rref(R, pivots, V, p):
    """RREF of the rows of an RREF (R, pivots) and of V together.

    The same as rref of the stacked rows, but R is taken as already
    reduced, so only the rows of V are eliminated.  R and pivots are left
    as they are.
    """
    W = _reduce(np.array(V, dtype=np.int64), p)
    return _rref_onto(R.copy(), list(pivots), W, p)


def rref_unit_triangular(U, cols, p):
    """RREF of rows whose leading entries are 1s in increasing columns.

    Row i of U is zero before column cols[i] and 1 there, and cols is
    increasing, so U[:, cols] is unit upper triangular and the RREF is
    U[:, cols]^-1 U with pivots cols.  The rows are taken in blocks of
    _LEAF from the bottom.  Each block is multiplied by the inverse of its
    own triangle I + N, which doubling gives in a few products:
    (I + N)^-1 = (I - N)(I + N^2)(I + N^4)..., stopping once the power of N
    is zero (N^_LEAF is).  The block is then cleared from the rows above by
    one product.  The rows below were cleared from the block before, and
    they are zero in its columns, so no pivot loop is needed.
    """
    R = _reduce(np.array(U, dtype=np.int64), p)
    cols = list(cols)
    top = (len(cols) - 1) // _LEAF * _LEAF
    for r0 in range(top, -1, -_LEAF):
        B = R[r0 : r0 + _LEAF]
        block = cols[r0 : r0 + _LEAF]
        power = _reduce(-B[:, block], p)
        power[np.diag_indices(len(block))] = 0  # -N
        inverse = np.eye(len(block), dtype=np.int64)
        while power.any():
            inverse = _reduce(inverse + _safe_matmul(inverse, power, p), p)
            power = _safe_matmul(power, power, p)
        B[:] = _safe_matmul(inverse, B, p)
        if r0:
            _eliminate(R[:r0], B, block, p)
    return R, cols


def reduce_rows(V, R, pivots, p):
    """Reduce the rows of V against an RREF (R, pivots); returns a new array.

    R must be in reduced echelon form (see the module docstring): the
    reduction is then V - V[:, pivots] @ R, one product.
    """
    return _eliminate(_reduce(np.array(V, dtype=np.int64), p), R, pivots, p)


def rank(A, p):
    return len(rref(A, p)[1])


def kernel_basis_array(A, p):
    """Canonical basis of the right kernel of A mod p.

    One basis vector per free column, with a 1 in its own free column and
    zeros in the other free columns (reduced-echelon normalization), listed
    in increasing free-column order.  Returns an array of shape (k, ncols).
    """
    A = np.asarray(A, dtype=np.int64)
    ncols = A.shape[1]
    R, pivots = rref(A, p)
    is_free = np.ones(ncols, dtype=bool)
    is_free[pivots] = False
    free = is_free.nonzero()[0]
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = -R[:, free].T % p
    return basis


def _left_kernel(M, p):
    """RREF (R, pivots) of {c : c M = 0}, in rank(M) pivot steps.  With
    M.T's columns reversed, the kernel vector of a free column f is 1 at f,
    0 at the other free columns and elsewhere nonzero only at pivot columns
    q > f, so read back in natural order the vectors are already the RREF."""
    K = kernel_basis_array(M.T[:, ::-1], p)[::-1, ::-1]
    return K, (K != 0).argmax(axis=1).tolist()


def charpoly_mod_p(A, p):
    """Characteristic polynomial det(tI - A) mod p.

    Returns ascending coefficients [c0, ..., c_{n-1}, 1].  Uses Hessenberg
    reduction followed by the standard leading-minor recurrence; O(n^3).
    """
    H = _reduce(np.array(A, dtype=np.int64), p)
    n = H.shape[0]
    if H.shape != (n, n):
        raise ValueError("square matrix expected")
    if n == 0:
        return [1]
    # similarity reduction to upper Hessenberg form: for each column, one
    # H -> L H L^-1 with L = I - f e_{col+1}^T clears H[col+2:, col]
    for col in range(n - 2):
        nz = np.nonzero(H[col + 1 :, col])[0]
        if nz.size == 0:
            continue
        piv = col + 1 + int(nz[0])
        if piv != col + 1:
            H[[col + 1, piv]] = H[[piv, col + 1]]
            H[:, [col + 1, piv]] = H[:, [piv, col + 1]]
        f = _reduce(H[col + 2 :, col] * inv_mod(int(H[col + 1, col]), p), p)
        H[col + 2 :] = _reduce(H[col + 2 :] - np.outer(f, H[col + 1]), p)
        H[:, col + 1] += _safe_matmul(H[:, col + 2 :], f[:, None], p)[:, 0]
        _reduce(H[:, col + 1], p)
    # row k of P holds p_k(t), the charpoly of the leading k x k block:
    # p_k = (t - H[k-1, k-1]) p_{k-1} - sum over m < k of term_m p_{m-1}
    P = np.zeros((n + 1, n + 1), dtype=np.int64)
    P[0, 0] = 1
    for k in range(1, n + 1):
        P[k, 1 : k + 1] = P[k - 1, :k]
        P[k, :k] -= int(H[k - 1, k - 1]) * P[k - 1, :k]
        terms = np.zeros(k - 1, dtype=np.int64)
        run = 1
        for m in range(k - 1, 0, -1):
            run = run * int(H[m, m - 1]) % p
            terms[m - 1] = run * int(H[m - 1, k - 1]) % p
        P[k, :k] -= _safe_matmul(terms[None, :], P[: k - 1, :k], p)[0]
        _reduce(P[k], p)
    return [int(c) for c in P[n]]


def _safe_matmul(A, B, p):
    """A @ B mod p for residue matrices or stacks of them, exact for every
    p <= 2**31.  A is integer; B may be integer or float64 (residues held
    exactly), and a float64 B is used as it is, with no copy.

    Every product is taken in float64, through BLAS, with K = A.shape[-1]
    the inner dimension.  When K * (p - 1)**2 < 2**53, one product does:
    every partial sum of K products of residues is then an integer below
    2**53, which a double holds exactly, so the result is exact in any
    summation order, with or without fused multiply-adds.  Otherwise A is
    split into limbs of b = 53 - bitlen(p - 1) - bitlen(K) bits: a limb
    times a residue is below 2**(53 - bitlen(K)), so each limb product is
    exact in float64 too.  The products are combined by Horner's rule in
    int64: the reduced sum so far times 2**b is below 2**52, so adding the
    next limb product stays below 2**54 before it is reduced.  At
    p = 2**31 - 1 that is 2 limbs up to K = 63 and 6 at K = 2**16 - 1; a
    longer inner dimension raises ValueError.
    """
    K = A.shape[-1]
    Bf = B.astype(np.float64, copy=False)
    if K * (p - 1) * (p - 1) < 1 << 53:
        C = A.astype(np.float64, copy=False) @ Bf
        C = C.astype(np.int64)
        return _reduce(C, p)
    if K >= 1 << 16 or p > _P_LIMIT:
        raise ValueError("no exact product for inner dimension %d mod %d" % (K, p))
    top = (p - 1).bit_length()
    b = 53 - top - K.bit_length()
    mask = (1 << b) - 1
    acc = 0
    for shift in range((top - 1) // b * b, -1, -b):  # most significant limb first
        C = (((A >> shift) & mask).astype(np.float64) @ Bf).astype(np.int64)
        C += acc << b
        acc = _reduce(C, p)
    return acc


def _one_blas_thread(path):
    """Set the OpenBLAS that the shared library at `path` links to one thread.

    dlsym through a library's handle also searches the libraries it
    depends on, so this finds the OpenBLAS numpy loaded: the wheel's
    scipy_openblas (symbols suffixed 64_ for 64-bit integers) or one linked
    from the system.  A numpy built on another BLAS exports none of these
    setters, and nothing is done.
    """
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            setter = getattr(lib, prefix + "_set_num_threads" + suffix, None)
            if setter is not None:
                setter(1)
                return


_one_blas_thread(np.linalg._umath_linalg.__file__)
