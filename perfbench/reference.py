"""Computations the benchmark checks the program against, made apart from it.

Nothing here calls gorlink: polynomial factor degrees come from sympy's
galoistools, the random draws are regenerated from the documented stream
construction (BLAKE2b over seed, label path and counter), and h-vectors and
graph components are computed from their definitions.
"""

import hashlib
import itertools

from sympy.polys import galoistools as gt
from sympy.polys.domains import ZZ

_MASK64 = (1 << 64) - 1


class Stream:
    """The counter-based stream gorlink.rng.SplitStream documents."""

    def __init__(self, seed, path=()):
        self.seed = int(seed) & _MASK64
        self.path = tuple(str(x) for x in path)
        key = ("%d|" % self.seed + "/".join(self.path)).encode()
        self._key = hashlib.blake2b(key, digest_size=16).digest()
        self._counter = 0

    def child(self, *labels):
        return Stream(self.seed, self.path + tuple(str(x) for x in labels))

    def below(self, n):
        limit = _MASK64 - (_MASK64 + 1) % n
        while True:
            digest = hashlib.blake2b(
                self._counter.to_bytes(8, "little"), digest_size=8, key=self._key
            ).digest()
            self._counter += 1
            x = int.from_bytes(digest, "little")
            if x <= limit:
                return x % n


def montecarlo_draw(n, k, q, seed, trial):
    """Ascending coefficients of trial `trial` of a Monte Carlo batch (monic)."""
    st = Stream(seed).child("montecarlo", n, k, q).child(trial)
    return [st.below(q) for _ in range(n)] + [1]


def factor_degrees(ascending, q):
    """Degrees of the irreducible factors of a monic polynomial over GF(q),
    or None when it is not square-free (sympy distinct-degree factorization)."""
    f = [c % q for c in reversed(ascending)]
    while f and f[0] == 0:
        f.pop(0)
    if len(f) <= 1:
        return []
    if not gt.gf_sqf_p(f, q, ZZ):
        return None
    degrees = []
    for g, k in gt.gf_ddf_zassenhaus(f, q, ZZ):
        degrees += [k] * ((len(g) - 1) // k)
    return degrees


def has_sub_sum(degrees, k):
    sums = 1
    for deg in degrees:
        sums |= sums << deg
    return bool(sums >> k & 1)


def splits(ascending, q, k):
    """Square-free with a degree-k factor."""
    degrees = factor_degrees(ascending, q)
    return degrees is not None and has_sub_sum(degrees, k)


def brute_force_counts(n, q):
    """[A(n, k, q) for k = 0..n] by enumerating all monic degree-n polynomials."""
    counts = [0] * (n + 1)
    for tail in itertools.product(range(q), repeat=n):
        degrees = factor_degrees(list(tail) + [1], q)
        if degrees is None:
            continue
        for k in range(n + 1):
            counts[k] += has_sub_sum(degrees, k)
    return counts


def is_squarefree(ascending, q):
    f = [c % q for c in reversed(ascending)]
    return bool(gt.gf_sqf_p(f, q, ZZ))


def generic_hvector(points):
    """h-vector of `points` general points in P^3: 1, 3, 6, ... then the rest."""
    out, i = [], 1
    while points > 0:
        t = i * (i + 1) // 2
        out.append(min(t, points))
        points -= out[-1]
        i += 1
    return tuple(out)


def is_additive(h, h_x, h_y):
    """h equals h_x plus the reverse of h_y shifted by some k >= 0."""
    rev = tuple(reversed(h_y))
    for shift in range(len(h) - len(rev) + 1):
        acc = list(h_x) + [0] * (len(h) - len(h_x))
        if len(acc) > len(h):
            return False
        for i, v in enumerate(rev):
            acc[shift + i] += v
        if tuple(acc) == tuple(h):
            return True
    return False


def component_of_one(edges):
    """Nodes reachable from 1 along undirected edges (d, e)."""
    adj = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    seen, todo = {1}, [1]
    while todo:
        for m in adj.get(todo.pop(), ()):
            if m not in seen:
                seen.add(m)
                todo.append(m)
    return seen


def binomial_ok(count, trials, prob, sigmas=5.0):
    """count lies within `sigmas` standard deviations of trials * prob."""
    mean = trials * prob
    sd = (trials * prob * (1 - prob)) ** 0.5
    return abs(count - mean) <= sigmas * sd
