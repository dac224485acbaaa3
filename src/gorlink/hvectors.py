"""Gorenstein h-vectors of point schemes in P^3 and the candidate search.

A zero-scheme that can link two generic point sets must have a symmetric
h-vector of one of two shapes (s >= 1, 0 <= c <= s+1, T(s) = s(s+1)/2):

    type I   {1, 3, 6, ..., T(s), T(s)+c, T(s), ..., 3, 1}
    type II  {1, 3, 6, ..., T(s), T(s)+c, T(s)+c, T(s), ..., 3, 1}

The dimension of the family of Gorenstein cones with such an h-vector is

    type I   4*s*(s+1) + 4*c - 1
    type II  (9/2)*s*(s+1) + c*(c+13)/2 - c*s - 1

and a candidate link (h, d, e) must satisfy g(h) >= 3*max(d, e) plus the
additivity constraint: the generic h-vector of d points plus a shifted
reversal of the generic h-vector of e points equals h.  Iterating s up
to any bound >= 6 shows the candidate list is finite with d <= 47.

Some numerically admissible candidates are geometrically impossible: if
the generic skew presentation matrix carries a forced zero block (type I
with c = 0, type II with c <= 1), the scheme lies on an ACM curve of
degree c_max = max(h) moving in a 4*c_max-dimensional family, which can
contain at most 2*c_max general points; candidates with 2d > 4*c_max are
excluded.
"""

from ._frozen import Frozen

__all__ = [
    "HVector",
    "GorensteinType",
    "LinkCandidate",
    "triangular",
    "generic_hvector",
    "parse_gorenstein_type",
    "gorenstein_family_dim",
    "additivity_shift",
    "decompose",
    "enumerate_candidates",
    "acm_curve_exclusion",
    "MAX_LINK_DEGREE",
]

MAX_LINK_DEGREE = 47


def triangular(s):
    return s * (s + 1) // 2


def _entries(h):
    if isinstance(h, HVector):
        return h.entries
    return tuple(int(x) for x in h)


class HVector(Frozen):
    """A finite sequence of positive integers; degree is their sum."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        entries = tuple(int(x) for x in entries)
        while entries and entries[-1] == 0:
            entries = entries[:-1]
        if any(x <= 0 for x in entries):
            raise ValueError("h-vector entries must be positive")
        object.__setattr__(self, "entries", entries)

    @property
    def degree(self):
        return sum(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def csv(self):
        return ",".join(str(x) for x in self.entries)

    @classmethod
    def from_csv(cls, text):
        return cls(int(t) for t in text.split(","))


def generic_hvector(d):
    """h-vector of d points with generic Hilbert function.

    Greedy: consecutive triangular numbers 1, 3, 6, ... while they fit,
    then the remainder (omitted when zero).
    """
    if d < 0:
        raise ValueError("point count must be >= 0")
    entries = []
    i = 1
    remaining = d
    while remaining >= triangular(i):
        entries.append(triangular(i))
        remaining -= triangular(i)
        i += 1
    if remaining:
        entries.append(remaining)
    return HVector(entries)


class GorensteinType(Frozen):
    """Shape parameters (kind, s, c) of an admissible Gorenstein h-vector."""

    __slots__ = ("kind", "s", "c")

    def __init__(self, kind, s, c):
        if kind not in ("I", "II"):
            raise ValueError("kind must be 'I' or 'II'")
        if s < 0 or not (0 <= c <= s + 1):
            raise ValueError("need s >= 0 and 0 <= c <= s+1")
        if s == 0 and c == 0:
            raise ValueError("s = 0 needs c >= 1 (one or two points)")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "c", c)

    def hvector(self):
        s, c = self.s, self.c
        up = [triangular(i) for i in range(1, s + 1)]
        middle = [triangular(s) + c] * (1 if self.kind == "I" else 2)
        return HVector(up + middle + list(reversed(up)))


def parse_gorenstein_type(h):
    """Recover (kind, s, c) from an h-vector, or None if it does not conform.

    Odd length 2m+1 parses as type I with s = m; even length 2m as type II
    with s = m-1.  The vector must be symmetric, ascend through the exact
    triangular numbers, and satisfy 0 <= c <= s+1.  The singleton {1} and
    the pair {1,1} parse with s = 0 (one and two points).
    """
    e = _entries(h)
    if not e:
        return None
    if any(e[i] != e[-1 - i] for i in range(len(e) // 2 + 1)):
        return None
    if len(e) % 2 == 1:
        kind, s = "I", len(e) // 2
    else:
        kind, s = "II", len(e) // 2 - 1
    for i in range(s):
        if e[i] != triangular(i + 1):
            return None
    c = e[s] - triangular(s)
    if not (0 <= c <= s + 1):
        return None
    t = GorensteinType(kind, s, c)
    if t.hvector().entries != e:
        return None
    return t


def gorenstein_family_dim(t):
    """Dimension of the family of Gorenstein cones with this h-vector shape."""
    s, c = t.s, t.c
    if t.kind == "I":
        return 4 * s * (s + 1) + 4 * c - 1
    return 9 * s * (s + 1) // 2 + c * (c + 13) // 2 - c * s - 1


def family_dim_of(h):
    t = parse_gorenstein_type(h)
    if t is None:
        raise ValueError("not an admissible Gorenstein h-vector: %r" % (h,))
    return gorenstein_family_dim(t)


def additivity_shift(h_g, h_x, h_y):
    """Shift k with h_G = h_X + shift^k(reverse(h_Y)), or None."""
    eg, ex, ey = _entries(h_g), _entries(h_x), _entries(h_y)
    rev = tuple(reversed(ey))
    if len(ex) > len(eg) or len(rev) > len(eg):
        return None
    for k in range(len(eg) - len(rev) + 1):
        acc = [0] * len(eg)
        for i, v in enumerate(ex):
            acc[i] += v
        for i, v in enumerate(rev):
            acc[k + i] += v
        if tuple(acc) == eg:
            return k
    return None


def decompose(h, d):
    """Split h as h_X + shift^k(reverse(h_Y)) with generic h_X, h_Y.

    h_X is the generic h-vector of d points, h_Y that of degree(h) - d
    points.  Returns (h_X, h_Y, k) for the unique shift k >= 0 making the
    entrywise sum work out, or None.
    """
    total = sum(_entries(h))
    if d < 0 or d > total:
        raise ValueError("need 0 <= d <= degree(h)")
    hx = generic_hvector(d)
    hy = generic_hvector(total - d)
    k = additivity_shift(h, hx, hy)
    return None if k is None else (hx, hy, k)


def acm_curve_exclusion(h, d):
    """True when the candidate is impossible: the scheme is forced onto an
    ACM curve too small to contain d general points.

    The generic presentation matrix has a forced zero block exactly for
    type I with c = 0 and type II with c <= 1; the curve's family has
    dimension 4*max(h), so the candidate dies when 2d > 4*max(h).
    """
    t = parse_gorenstein_type(h)
    if t is None:
        raise ValueError("not an admissible Gorenstein h-vector: %r" % (h,))
    forced_block = (t.kind == "I" and t.c == 0) or (t.kind == "II" and t.c <= 1)
    return forced_block and 2 * d > 4 * max(_entries(h))


class LinkCandidate(Frozen):
    """A numerically possible link: h-vector plus the split d + e."""

    __slots__ = ("h", "d", "e", "gdim", "status")

    STATUSES = ("admissible", "excluded-acm", "verified", "refuted")

    def __init__(self, h, d, e, gdim, status):
        if d < e:
            raise ValueError("candidates are recorded with d >= e")
        if d + e != sum(_entries(h)):
            raise ValueError("d + e must equal degree(h)")
        if status not in self.STATUSES:
            raise ValueError("unknown status %r" % status)
        object.__setattr__(self, "h", HVector(_entries(h)))
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "gdim", gdim)
        object.__setattr__(self, "status", status)

    def line(self):
        return "%s %d %d %d %s" % (self.h.csv(), self.d, self.e, self.gdim, self.status)


def enumerate_candidates(s_max):
    """All candidate links for shapes with s <= s_max, d >= e >= 1.

    A triple qualifies when the family dimension meets g(h) >= 3d and the
    h-vector decomposes as generic(d) + shifted reverse of generic(e).
    Each candidate carries its exclusion status.
    """
    if s_max < 1:
        raise ValueError("s_max must be >= 1")
    out = []
    for s in range(1, s_max + 1):
        for kind in ("I", "II"):
            for c in range(0, s + 2):
                t = GorensteinType(kind, s, c)
                h = t.hvector()
                gdim = gorenstein_family_dim(t)
                total = h.degree
                for d in range((total + 1) // 2, total):
                    e = total - d
                    if gdim < 3 * d:
                        continue
                    if decompose(h, d) is None:
                        continue
                    status = "excluded-acm" if acm_curve_exclusion(h, d) else "admissible"
                    out.append(LinkCandidate(h, d, e, gdim, status))
    out.sort(key=lambda cand: (cand.h.degree, cand.h.entries, -cand.d))
    return out
