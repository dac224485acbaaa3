import pytest

from gorlink.hvectors import (
    GorensteinType,
    HVector,
    LinkCandidate,
    acm_curve_exclusion,
    decompose,
    enumerate_candidates,
    family_dim_of,
    generic_hvector,
    gorenstein_family_dim,
    parse_gorenstein_type,
)

# finite-projection rows: family dimension exactly 3d
FINITE_PROJECTION_ROWS = [
    (7, (1, 3, 3, 1)),
    (17, (1, 3, 6, 7, 6, 3, 1)),
    (21, (1, 3, 6, 10, 6, 3, 1)),
    (25, (1, 3, 6, 10, 10, 6, 3, 1)),
    (29, (1, 3, 6, 10, 12, 10, 6, 3, 1)),
    (32, (1, 3, 6, 10, 12, 12, 10, 6, 3, 1)),
    (33, (1, 3, 6, 10, 15, 10, 6, 3, 1)),
    (38, (1, 3, 6, 10, 15, 15, 10, 6, 3, 1)),
    (45, (1, 3, 6, 10, 15, 19, 15, 10, 6, 3, 1)),
]

# (d, h) pairs killed by the ACM-curve argument
ACM_EXCLUSION_ROWS = [
    (7, (1, 3, 3, 3, 1)),
    (7, (1, 3, 3, 3, 3, 1)),
    (13, (1, 3, 6, 6, 6, 3, 1)),
    (14, (1, 3, 6, 6, 6, 3, 1)),
    (15, (1, 3, 6, 6, 6, 3, 1)),
    (16, (1, 3, 6, 6, 6, 6, 3, 1)),
    (17, (1, 3, 6, 7, 7, 6, 3, 1)),
    (25, (1, 3, 6, 10, 10, 10, 6, 3, 1)),
    (26, (1, 3, 6, 10, 10, 10, 6, 3, 1)),
]


def test_generic_hvector_examples():
    assert generic_hvector(1).entries == (1,)
    assert generic_hvector(21).entries == (1, 3, 6, 10, 1)
    assert generic_hvector(9).entries == (1, 3, 5)
    assert generic_hvector(20).entries == (1, 3, 6, 10)
    for d in range(1, 100):
        h = generic_hvector(d)
        assert h.degree == d


def test_parse_examples():
    t = parse_gorenstein_type((1, 3, 6, 10, 6, 3, 1))
    assert (t.kind, t.s, t.c) == ("I", 3, 4)
    t = parse_gorenstein_type((1, 3, 3, 1))
    assert (t.kind, t.s, t.c) == ("II", 1, 2)
    t = parse_gorenstein_type((1, 3, 6, 10, 15, 15, 10, 6, 3, 1))
    assert (t.kind, t.s, t.c) == ("II", 4, 5)
    assert parse_gorenstein_type((1, 3, 2, 3, 1)) is None
    assert parse_gorenstein_type((1, 4, 1)) is None  # c = 3 > s+1 = 2
    assert parse_gorenstein_type((2, 3, 2)) is None


def test_parse_reconstruct_roundtrip():
    for s in range(0, 7):
        for kind in ("I", "II"):
            for c in range(0 if s else 1, s + 2):
                t = GorensteinType(kind, s, c)
                h = t.hvector()
                back = parse_gorenstein_type(h)
                assert back == t, (kind, s, c, h)


def test_family_dim_examples():
    assert gorenstein_family_dim(GorensteinType("I", 3, 4)) == 63
    assert gorenstein_family_dim(GorensteinType("I", 5, 4)) == 135
    assert gorenstein_family_dim(GorensteinType("II", 1, 2)) == 21
    assert family_dim_of((1, 3, 6, 10, 6, 3, 1)) == 63


def test_decompose_examples():
    hx, hy, k = decompose((1, 3, 6, 10, 6, 3, 1), 21)
    assert hx.entries == (1, 3, 6, 10, 1) and hy.entries == (1, 3, 5) and k == 4
    hx, hy, k = decompose((1, 3, 6, 10, 6, 3, 1), 20)
    assert hx.entries == (1, 3, 6, 10) and hy.entries == (1, 3, 6) and k == 4
    # {1,3,1} + shift^2(2,1) = {1,3,3,1}: this split exists
    hx, hy, k = decompose((1, 3, 3, 1), 5)
    assert hx.entries == (1, 3, 1) and hy.entries == (1, 2) and k == 2
    # and a split that genuinely fails
    assert decompose((1, 3, 6, 10, 6, 3, 1), 29) is None


def test_decompose_entrywise_consistency():
    # brute-force re-addition for every candidate h and every d
    for cand in enumerate_candidates(6):
        e = cand.h.entries
        for d in range(0, sum(e) + 1):
            got = decompose(cand.h, d)
            if got is None:
                continue
            hx, hy, k = got
            acc = [0] * len(e)
            for i, v in enumerate(hx.entries):
                acc[i] += v
            for i, v in enumerate(reversed(hy.entries)):
                acc[k + i] += v
            assert tuple(acc) == e


def stanley_admissible(h):
    """Symmetric, with nonnegative first difference up to the middle."""
    e = tuple(h)
    if not e:
        return False
    if any(e[i] != e[-1 - i] for i in range(len(e) // 2 + 1)):
        return False
    mid = (len(e) - 1) // 2
    prev = 0
    for i in range(mid + 1):
        if e[i] < prev:
            return False
        prev = e[i]
    return True


def test_stanley_admissible():
    assert stanley_admissible((1, 3, 6, 10, 6, 3, 1))
    assert not stanley_admissible((1, 3, 2, 3, 1))
    assert not stanley_admissible((1, 2, 1, 2, 1))
    assert stanley_admissible((1, 1, 1))


def test_every_candidate_is_stanley_admissible():
    for cand in enumerate_candidates(6):
        assert stanley_admissible(cand.h)


def test_enumeration_bounds():
    cands = enumerate_candidates(8)
    assert cands, "candidate list must not be empty"
    assert max(c.d for c in cands) == 47
    assert max(parse_gorenstein_type(c.h).s for c in cands) == 5
    # growing the bound changes nothing
    assert [c.line() for c in enumerate_candidates(10)] == [c.line() for c in cands]
    # every candidate splits degree with d >= e >= 1 and enough family dimension
    for c in cands:
        assert c.d >= c.e >= 1
        assert c.d + c.e == c.h.degree
        assert c.gdim >= 3 * c.d
    # the flagship split is present
    assert any(
        c.h.entries == (1, 3, 6, 10, 6, 3, 1) and (c.d, c.e) == (20, 10) for c in cands
    )


def test_finite_projection_rows():
    for d, h in FINITE_PROJECTION_ROWS:
        assert family_dim_of(h) == 3 * d, (d, h)


def test_acm_exclusion_rows():
    for d, h in ACM_EXCLUSION_ROWS:
        assert acm_curve_exclusion(h, d), (d, h)
    # flagship is not excluded: its matrix is all linear forms, no zero block
    assert not acm_curve_exclusion((1, 3, 6, 10, 6, 3, 1), 20)
    # same h as an excluded row but small enough d stays alive
    assert not acm_curve_exclusion((1, 3, 3, 3, 1), 6)


def test_candidate_exclusion_statuses():
    cands = enumerate_candidates(6)
    flagged = {(c.d, c.h.entries) for c in cands if c.status == "excluded-acm"}
    assert flagged == {(d, tuple(h)) for d, h in ACM_EXCLUSION_ROWS}
    # no finite-projection (verified) row is flagged
    for d, h in FINITE_PROJECTION_ROWS:
        assert (d, tuple(h)) not in flagged


def test_candidate_line_roundtrip():
    for cand in enumerate_candidates(3):
        hcsv, d, e, gdim, status = cand.line().split()
        read = LinkCandidate(HVector.from_csv(hcsv), int(d), int(e), int(gdim), status)
        assert read == cand


def test_hvector_validation():
    with pytest.raises(ValueError):
        HVector((1, 0, 3))
    with pytest.raises(ValueError):
        LinkCandidate((1, 3, 3, 1), 3, 5, 21, "admissible")
    with pytest.raises(ValueError):
        LinkCandidate((1, 3, 3, 1), 5, 4, 21, "admissible")
