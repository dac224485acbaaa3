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

Pivoting takes the first nonzero entry in a column (arithmetic is exact,
no magnitude concerns), and the reduced row echelon form of a row space
is unique, so every echelon form here is canonical, whatever the order of
the steps that computed it.  rref works through the rows in blocks of
_LEAF, with matrix products doing most of the work (Dumas, Giorgi and
Pernet, FFLAS-FFPACK, 2008; Jeannerod, Pernet and Storjohann, 2013): one
product reduces a block against the echelon form of the blocks before it,
Gauss-Jordan eliminates what is left of the block a column at a time, and
one more product clears the block's new pivot columns from the earlier
rows.  An input of at most _LEAF rows is one block and takes no product.

reduce_rows needs its (R, pivots) in reduced echelon form: then
R[:, pivots] is the identity, the coefficient of row i in the reduction of
v is v[pivots[i]], untouched by the other rows, and the reduction of the
rows of V is the single product V - V[:, pivots] @ R.
"""

import numpy as np

__all__ = [
    "is_odd_prime",
    "check_modulus",
    "inv_mod",
    "rref",
    "reduce_rows",
    "kernel_basis_array",
    "rank",
    "solve_in_rowspace",
    "charpoly_mod_p",
]

_P_LIMIT = 1 << 31


def is_odd_prime(p):
    """Deterministic Miller-Rabin, valid for all p < 2**31."""
    if p < 3 or p % 2 == 0:
        return False
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7):  # deterministic witness set below 3.2e9
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


def check_modulus(p):
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


def rref(A, p):
    """Reduced row echelon form mod p.

    Returns (R, pivots) where pivots is the list of pivot column indices,
    one per nonzero row of R, in increasing order.  Column order is the
    caller's.  The reduced echelon form of a row space is unique, so the
    result does not depend on how it is computed: the rows are taken in
    blocks of _LEAF, each block reduced against the echelon form of the
    blocks before it by one matrix product, its remaining rows eliminated a
    column at a time, and its new pivot columns cleared from the earlier
    rows by one more product.
    """
    W = _reduce(np.array(A, dtype=np.int64), p)
    if W.ndim != 2:
        raise ValueError("matrix expected")
    R, pivots = W[:0], []
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


def solve_in_rowspace(R, pivots, V, p):
    """Coordinates of the rows of V in terms of the RREF rows R.

    Requires every row of V to lie in the row space (raises otherwise).
    Since R is in reduced echelon form the coordinates are just the pivot
    columns of V.
    """
    V = _reduce(np.array(V, dtype=np.int64), p)
    if reduce_rows(V, R, pivots, p).any():
        raise ValueError("vector not in row space")
    return V[:, pivots]


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
    p <= 2**31.

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
    if K * (p - 1) * (p - 1) < 1 << 53:
        C = A.astype(np.float64) @ B.astype(np.float64)
        C = C.astype(np.int64)
        return _reduce(C, p)
    if K >= 1 << 16 or p > _P_LIMIT:
        raise ValueError("no exact product for inner dimension %d mod %d" % (K, p))
    Bf = B.astype(np.float64)
    top = (p - 1).bit_length()
    b = 53 - top - K.bit_length()
    mask = (1 << b) - 1
    acc = 0
    for shift in range((top - 1) // b * b, -1, -b):  # most significant limb first
        C = (((A >> shift) & mask).astype(np.float64) @ Bf).astype(np.int64)
        C += acc << b
        acc = _reduce(C, p)
    return acc
