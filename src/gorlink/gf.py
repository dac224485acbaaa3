"""Exact arithmetic in GF(p) and dense linear algebra mod p.

Elements are canonical residues in [0, p) for an odd prime p < 2**31.
Matrices are numpy int64 arrays; with p below 2**31, a product of two
residues fits in an int64, so Gaussian elimination can reduce mod p
after each row operation without overflow.  Pivoting takes the first
nonzero entry in a column (arithmetic is exact, no magnitude concerns),
which also makes every echelon form canonical and deterministic.
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
    "det_mod_p",
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


def rref(A, p):
    """Reduced row echelon form mod p.

    Returns (R, pivots) where pivots is the list of pivot column indices,
    one per nonzero row of R, in increasing order.  Column order is the
    caller's; first-nonzero pivoting makes the result canonical.
    """
    R = np.array(A, dtype=np.int64) % p
    if R.ndim != 2:
        raise ValueError("matrix expected")
    nrows, ncols = R.shape
    pivots = []
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        nz = np.nonzero(R[row:, col])[0]
        if nz.size == 0:
            continue
        pr = row + int(nz[0])
        if pr != row:
            R[[row, pr]] = R[[pr, row]]
        inv = inv_mod(int(R[row, col]), p)
        R[row] = R[row] * inv % p
        others = np.nonzero(R[:, col])[0]
        others = others[others != row]
        if others.size:
            R[others] = (R[others] - np.outer(R[others, col], R[row])) % p
        pivots.append(col)
        row += 1
    return R[: len(pivots)], pivots


def reduce_rows(V, R, pivots, p):
    """Reduce the rows of V against an RREF (R, pivots); returns new array."""
    W = np.array(V, dtype=np.int64) % p
    for i, col in enumerate(pivots):
        coef = W[:, col]
        nz = np.nonzero(coef)[0]
        if nz.size:
            W[nz] = (W[nz] - np.outer(coef[nz], R[i])) % p
    return W


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
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    for i, fc in enumerate(free):
        basis[i, fc] = 1
        for r, pc in enumerate(pivots):
            basis[i, pc] = (-int(R[r, fc])) % p
    return basis


def solve_in_rowspace(R, pivots, V, p):
    """Coordinates of the rows of V in terms of the RREF rows R.

    Requires every row of V to lie in the row space (raises otherwise).
    Since R is in reduced echelon form the coordinates are just the pivot
    columns of V read off during reduction.
    """
    V = np.asarray(V, dtype=np.int64) % p
    coords = V[:, pivots].copy() if len(pivots) else np.zeros((V.shape[0], 0), np.int64)
    W = reduce_rows(V, R, pivots, p)
    if W.any():
        raise ValueError("vector not in row space")
    return coords


def det_mod_p(A, p):
    """Determinant mod p by fraction-free forward elimination."""
    M = np.array(A, dtype=np.int64) % p
    n = M.shape[0]
    if M.shape != (n, n):
        raise ValueError("square matrix expected")
    det = 1
    for col in range(n):
        nz = np.nonzero(M[col:, col])[0]
        if nz.size == 0:
            return 0
        pr = col + int(nz[0])
        if pr != col:
            M[[col, pr]] = M[[pr, col]]
            det = -det
        piv = int(M[col, col])
        det = det * piv % p
        inv = inv_mod(piv, p)
        rows = np.nonzero(M[col + 1 :, col])[0] + col + 1
        if rows.size:
            factors = M[rows, col] * inv % p
            M[rows] = (M[rows] - factors[:, None] * M[col]) % p
    return det % p


def charpoly_mod_p(A, p):
    """Characteristic polynomial det(tI - A) mod p.

    Returns ascending coefficients [c0, ..., c_{n-1}, 1].  Uses Hessenberg
    reduction followed by the standard leading-minor recurrence; O(n^3).
    """
    H = np.array(A, dtype=np.int64) % p
    n = H.shape[0]
    if H.shape != (n, n):
        raise ValueError("square matrix expected")
    if n == 0:
        return [1]
    # similarity reduction to upper Hessenberg form
    for col in range(n - 2):
        nz = np.nonzero(H[col + 1 :, col])[0]
        if nz.size == 0:
            continue
        piv = col + 1 + int(nz[0])
        if piv != col + 1:
            H[[col + 1, piv]] = H[[piv, col + 1]]
            H[:, [col + 1, piv]] = H[:, [piv, col + 1]]
        inv = inv_mod(int(H[col + 1, col]), p)
        for r in range(col + 2, n):
            if H[r, col]:
                f = int(H[r, col]) * inv % p
                H[r] = (H[r] - f * H[col + 1]) % p
                H[:, col + 1] = (H[:, col + 1] + f * H[:, r]) % p
    # p_k(t) = charpoly of leading k x k block of the Hessenberg matrix
    polys = [[1]]  # p_0 = 1
    for k in range(1, n + 1):
        akk = int(H[k - 1, k - 1])
        prev = polys[k - 1]
        cur = [(-akk * prev[0]) % p] + [
            (prev[i - 1] - akk * prev[i]) % p for i in range(1, k)
        ] + [1]
        run = 1
        for m in range(k - 1, 0, -1):
            run = run * int(H[m, m - 1]) % p
            term = run * int(H[m - 1, k - 1]) % p
            if term:
                pm = polys[m - 1]
                for i in range(len(pm)):
                    cur[i] = (cur[i] - term * pm[i]) % p
        polys.append(cur)
    return [c % p for c in polys[n]]


def _safe_matmul(A, B, p):
    """A @ B mod p for residue matrices, exact for every p <= 2**31.

    When K * (p - 1)**2 < 2**63 (K the inner dimension) one int64 product
    is exact.  Otherwise A is split into 16-bit limbs, A = hi * 2**16 + lo,
    and A @ B = ((hi @ B) mod p) * 2**16 + lo @ B mod p: hi < 2**15 and
    lo < 2**16 keep every partial sum below 2**63 while K < 2**16, so a
    longer inner dimension raises ValueError.
    """
    K = A.shape[1]
    if K * (p - 1) * (p - 1) < 1 << 63:
        return (A @ B) % p
    if K >= 1 << 16 or p > _P_LIMIT:
        raise ValueError("no exact int64 product for inner dimension %d mod %d" % (K, p))
    return (((A >> 16) @ B % p << 16) + (A & 0xFFFF) @ B) % p
