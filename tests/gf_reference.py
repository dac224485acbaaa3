"""Slow GF(p) elimination references, kept for cross-checks in the tests.

`rref` and `reduce_rows` one pivot at a time on full rows, which gorlink.gf
computes by row blocks and matrix products, plus the determinant by
forward elimination, which only the tests use.
"""

import numpy as np

from gorlink.gf import inv_mod


def rref(A, p):
    """Reduced row echelon form mod p, one pivot column at a time."""
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
    """Reduce the rows of V against an RREF (R, pivots), one pivot at a time."""
    W = np.array(V, dtype=np.int64) % p
    for i, col in enumerate(pivots):
        coef = W[:, col]
        nz = np.nonzero(coef)[0]
        if nz.size:
            W[nz] = (W[nz] - np.outer(coef[nz], R[i])) % p
    return W


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
