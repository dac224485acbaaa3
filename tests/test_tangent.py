import os

import numpy as np
import pytest

from gorlink import gorenstein
from gorlink.gf import charpoly_mod_p
from gorlink.mpoly import MultiPoly
from gorlink.groebner import SubIdeal, groebner, h_vector
from gorlink.gorenstein import (
    ProjectionWitness,
    char_poly_of_projection,
    extract_subscheme,
    is_reduced_and_split,
    multiplication_operator,
    random_gorenstein,
    residual,
    submaximal_pfaffians,
    witness_splits,
)
from gorlink.hvectors import additivity_shift, family_dim_of, generic_hvector
from gorlink.rng import SplitStream
from gorlink.store import parse_certificate, serialize_certificate
from gorlink.unipoly import UniPoly
from gorlink.tangent import (
    EdgeCertificate,
    hom_dim_zero,
    replay_certificate,
    verify_edge,
)

import groebner_oracle as oracle


def P(s, p):
    return MultiPoly.parse(s, p)


def test_graded_piece_trivial_and_small():
    # J = I_G has only zero pieces over I_G, so no map lands in it; the unit
    # ideal's pieces are the whole of S/I_G
    p = 101
    M, gb = random_gorenstein((1, 3, 3, 1), p, SplitStream(3).child("gorenstein"))
    _, xh, _ = char_poly_of_projection(gb, SplitStream(3).child("xh"))
    n = gb.scheme_degree()
    nothing, unit = np.zeros((0, n), dtype=np.int64), np.eye(n, dtype=np.int64)
    assert hom_dim_zero(M, gb, (SubIdeal(gb, xh, nothing), SubIdeal(gb, xh, unit))) == (0, 21, 21)
    # J = (x0) does not contain I_G, whether held over its own ideal or as
    # an ideal of its own; nor is an ideal over an equal copy of I_G taken
    x0 = groebner([P("x0", p)], p)
    copy = groebner(gb.gens, p)
    for J in (SubIdeal(x0, xh, nothing), x0, gb, SubIdeal(copy, xh, unit)):
        with pytest.raises(ValueError):
            hom_dim_zero(M, gb, (J,))


def _twenty_in_thirty(seed, label):
    """A (1,3,6,10,6,3,1) draw at p = 10007 with a degree-20 split and the
    extracted I_X."""
    for attempt in range(20):
        st = SplitStream(seed).child(label, attempt)
        M, gb = random_gorenstein((1, 3, 6, 10, 6, 3, 1), 10007, st.child("g"))
        w = is_reduced_and_split(gb, 20, st.child("s"))
        if w is not None:
            return M, gb, extract_subscheme(gb, w.ell, w.xh, w.factor)
    raise AssertionError("no split found in 20 attempts")


def test_graded_piece_twenty_in_thirty():
    _, gb, gbx = _twenty_in_thirty(31, "gp")
    # (I_X/I_G)_t, spanned by the coordinates of (I_X)_t in (S/I_G)_t, has
    # dimension HF_G(t) - HF_X(t): 26 - 20 at t = 4.  The sub-ideal holds
    # it directly; the full piece, built by the oracle, gives the same span
    for t, dim in ((4, 26 - 20), (5, 29 - 20)):
        R, pivots = gbx.relative(t)
        assert R.shape == (dim, gb.hf(t)) and len(pivots) == dim
        coords = oracle.graded_coords(gb, oracle.full_piece(gbx, t)[0], t)
        assert oracle.rank(coords, gb.p) == gb.hf(t) - gbx.hf(t) == dim
        assert oracle.rank(np.vstack([coords, R]), gb.p) == dim


def test_hom_into_quotient_of_complete_intersection():
    # CI of three quadrics: the matrix entries lie in the ideal, so all
    # 3 * dim (S/I)_2 = 21 unknowns are free
    M, gb = random_gorenstein((1, 3, 3, 1), 101, SplitStream(3).child("gorenstein"))
    assert hom_dim_zero(M, gb, ()) == (21,)
    assert family_dim_of((1, 3, 3, 1)) == 21


def test_hom_family_dimension_independent_of_draw():
    # the tangent-space dimension of the family equals g(h) for any good draw
    for h in ((1, 1, 1), (1, 2, 2, 1), (1, 3, 3, 1), (1, 3, 6, 10, 6, 3, 1)):
        g = family_dim_of(h)
        p = 10007 if sum(h) > 10 else 101
        for seed in range(5):
            M, gb = random_gorenstein(h, p, SplitStream(seed).child("gorenstein"))
            assert hom_dim_zero(M, gb, ()) == (g,), (h, seed)


def test_hom_presentation_check():
    M, gb = random_gorenstein((1, 3, 3, 1), 101, SplitStream(3).child("gorenstein"))
    # a valid Pfaffian presentation (test_gorenstein checks M annihilates its
    # Pfaffians) gives the tangent dimension of the (1,3,3,1) family
    assert hom_dim_zero(M, gb, ()) == (21,)


def test_hom_dim_zero_matches_frame_oracle():
    # the pivots one running elimination gains per block of rows against one
    # constraint matrix per target over echelon frames, and against one
    # kernel over S/I_G restricted per submodule; p = 2^31 - 1 takes the
    # limbs of _safe_matmul in the stacked fill of A
    for h, d in (((1, 3, 3, 1), 5), ((1, 3, 3, 1), 6), ((1, 3, 6, 10, 6, 3, 1), 20)):
        for p in (101, 10007, 32003, 2**31 - 1):
            unit = groebner([P("1", p)], p)
            found = 0
            for attempt in range(20):
                st = SplitStream(5).child("oracle", attempt)
                M, gb = random_gorenstein(h, p, st.child("g"))
                w = is_reduced_and_split(gb, d, st.child("s"))
                if w is None:
                    continue
                gbx = extract_subscheme(gb, w.ell, w.xh, w.factor)
                gby = residual(gb, gbx)
                expected = tuple(oracle.hom_dim_by_frames(M, gb, J) for J in (gbx, gby, unit))
                assert hom_dim_zero(M, gb, (gbx, gby)) == expected, (h, d, p, attempt)
                assert oracle.hom_dim_by_kernel(M, gb, (gbx, gby)) == expected
                found += 1
                if found == 2:
                    break
            assert found, (h, d, p)


def test_hom_dim_zero_refuses_pieces_that_meet():
    # I_X twice is not a direct sum over I_G, so its pivots would not add up
    M, gb, gbx = _twenty_in_thirty(31, "gp")
    with pytest.raises(ValueError, match="direct sum"):
        hom_dim_zero(M, gb, (gbx, gbx))


def test_generic_hilbert_function_test():
    # HF = min(C(t + 3, 3), d) iff the h-vector is generic(d), which is how
    # a certificate's generic-HF tests are read
    p = 101
    point = groebner([P("x1", p), P("x2", p), P("x3", p)], p)
    assert h_vector(point) == generic_hvector(1).entries
    # 4 points on a line: HF(1) = 2 < min(4, 4)
    quartic = P("x1^4 + 7*x0*x1^3 + x0^3*x1 + 3*x0^4", p)
    collinear = groebner([P("x2", p), P("x3", p), quartic], p)
    assert h_vector(collinear) != generic_hvector(4).entries


def test_additivity_shift():
    assert additivity_shift((1, 3, 6, 10, 6, 3, 1), (1, 3, 6, 10, 1), (1, 3, 5)) == 4
    assert additivity_shift((1, 3, 6, 10, 6, 3, 1), (1, 3, 6, 10), (1, 3, 6)) == 4
    assert additivity_shift((1, 3, 3, 1), (1, 3, 1), (1, 2)) == 2
    assert additivity_shift((1, 3, 3, 1), (1, 3), (1, 3)) == 2
    assert additivity_shift((1, 3, 3, 1), (1, 2), (1, 2)) is None


def test_verify_edge_small_link():
    cert = verify_edge((1, 3, 3, 1), 7, 101, seed=0)
    assert cert.verdict == "verified"
    assert cert.gdim == 21
    assert (cert.hom_IX, cert.hom_IY, cert.hom_SG) == (0, 18, 21)
    assert cert.h_x == (1, 3, 3) and cert.h_y == (1,)
    assert all(cert.tests.values())


def test_verify_edge_exact_sequence_bound():
    cert = verify_edge((1, 3, 3, 1), 5, 101, seed=1)
    assert cert.verdict == "verified"
    assert cert.hom_SG <= cert.hom_IX + 3 * cert.d
    assert cert.hom_SG <= cert.hom_IY + 3 * cert.e


def test_verify_edge_symmetric_in_d_and_e():
    # swapping the extracted side reuses the same schemes (same seed) and
    # must reach the same verdict with the hom dimensions exchanged
    a = verify_edge((1, 3, 3, 1), 5, 101, seed=3)
    b = verify_edge((1, 3, 3, 1), 3, 101, seed=3)
    assert a.verdict == b.verdict == "verified"
    assert (a.hom_IX, a.hom_IY) == (b.hom_IY, b.hom_IX)
    assert a.hom_SG == b.hom_SG


def test_verify_edge_excluded_candidate_never_verifies():
    cert = verify_edge((1, 3, 3, 3, 1), 7, 101, seed=0, max_attempts=10)
    assert cert.verdict in ("refuted", "inconclusive")
    if cert.verdict == "refuted":
        assert not cert.tests["hom_IX"]  # the d-side dominance is what fails
        assert parse_certificate(serialize_certificate(cert)) == cert


def test_certificate_refuses_unknown_fields():
    assert EdgeCertificate(hom_IX=3).hom_IX == 3
    with pytest.raises(TypeError, match="hom_ix"):
        EdgeCertificate(hom_ix=3)


def test_verify_edge_input_validation():
    with pytest.raises(ValueError):
        verify_edge((1, 3, 3, 1), 8, 101, seed=0)
    with pytest.raises(ValueError):
        verify_edge((1, 3, 2, 1), 4, 101, seed=0)


def test_replay_is_deterministic_and_bit_exact():
    cert = verify_edge((1, 3, 3, 1), 6, 101, seed=4)
    assert cert.verdict == "verified"
    ok1, tests1, dims1 = replay_certificate(cert)
    ok2, tests2, dims2 = replay_certificate(cert)
    assert ok1 and ok2
    assert tests1 == tests2 == cert.tests
    assert dims1 == dims2 == (cert.hom_IX, cert.hom_IY, cert.hom_SG)


FIXTURE_7_1 = os.path.join(
    os.path.dirname(__file__), os.pardir, "perfbench", "fixture", "edge_7_1_0a09c033_2024.cert"
)


def test_search_and_replay_take_no_colon(monkeypatch):
    """The liaison involution follows from the square-free projection, so
    neither the search nor replay takes the colon I_G : I_Y."""

    def refuse(*args):
        raise AssertionError("a colon was taken")

    monkeypatch.setattr(gorenstein, "point_ideal_quotient", refuse)
    assert verify_edge((1, 3, 3, 1), 3, 10007, 2024).verdict == "verified"
    with open(FIXTURE_7_1) as fh:
        cert = parse_certificate(fh.read())
    assert cert.verdict == "verified" and replay_certificate(cert)[0]


MISSTATED = [
    ("e", lambda c: c.e + 1),
    ("gdim", lambda c: c.gdim + 1),
    ("hom_IX", lambda c: c.hom_IX + 1),
    ("hom_IY", lambda c: c.hom_IY + 1),
    ("hom_SG", lambda c: c.hom_SG - 1),
    ("tests", lambda c: dict(c.tests, additivity=False)),
    ("verdict", lambda c: "refuted"),
    ("h_x", lambda c: c.h_x + (1,)),
    ("h_y", lambda c: c.h_y + (1,)),
]


@pytest.fixture(scope="module")
def cert_6_1():
    cert = verify_edge((1, 3, 3, 1), 6, 101, seed=4)
    assert cert.verdict == "verified"
    return cert


@pytest.mark.parametrize("field, misstate", MISSTATED, ids=[f for f, _ in MISSTATED])
def test_replay_refuses_each_misstated_field(cert_6_1, field, misstate):
    # replay rebuilds the whole certificate, so one changed field is a mismatch
    fields = {name: getattr(cert_6_1, name) for name in EdgeCertificate.__slots__}
    assert replay_certificate(EdgeCertificate(**fields))[0]
    fields[field] = misstate(cert_6_1)
    assert replay_certificate(EdgeCertificate(**fields))[0] is False


def test_replay_refuses_a_split_with_an_empty_side():
    # d = 0 with the factor 1, or d = deg G with the whole char poly, passes
    # the witness check, but such a split has no residual to take: replay
    # reports a mismatch before extracting
    cert = verify_edge((1, 3, 3, 1), 6, 101, seed=4)
    n, w = cert.h.degree, cert.witness
    ideal = groebner([f for f in submaximal_pfaffians(cert.matrix) if not f.is_zero()], 101)
    T = multiplication_operator(ideal, w.ell, w.xh)
    for d, factor in ((0, UniPoly.one(101)), (n, UniPoly(charpoly_mod_p(T, 101), 101))):
        witness = ProjectionWitness(w.ell, w.xh, factor)
        assert witness_splits(ideal, witness, d)
        fields = {name: getattr(cert, name) for name in EdgeCertificate.__slots__}
        fields.update(d=d, e=n - d, witness=witness)
        assert replay_certificate(EdgeCertificate(**fields)) == (False, {}, ())


def test_hom_into_subquotient_dimensions():
    M, gb, gbx = _twenty_in_thirty(77, "sq")
    assert hom_dim_zero(M, gb, (gbx,)) == (63 - 60, 63)
