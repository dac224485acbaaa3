"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The graph criteria run every candidate that is not excluded as an ACM
curve (h-vector degree up to 96) at p = 10007 and require the connected
component of 1 to be exactly {1..33, 37, 38}, the paper's theorem, and
every certificate of that run to replay from its file.
"""

import math
import time
from fractions import Fraction
from itertools import product

import pytest

from gorlink import splitstats as ss
from gorlink._workers import worker_pool
from gorlink.cli import main as cli_main
from gorlink.graph import build_graph, glicci_component
from gorlink.gorenstein import generic_degree_matrix
from gorlink.hvectors import (
    acm_curve_exclusion,
    additivity_shift,
    enumerate_candidates,
    family_dim_of,
    parse_gorenstein_type,
)
from gorlink.store import (
    load_certificates,
    parse_certificate,
    save_certificate,
    serialize_certificate,
)
from gorlink.tangent import replay_certificate, verify_edge
from gorlink.unipoly import UniPoly, is_squarefree

ACCEPTANCE_PRIME = 10007
ACCEPTANCE_SEED = 2024


def _report(num, ok, detail):
    print("\nacceptance %-2d %s: %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d failed: %s" % (num, detail)


def test_criterion_01_exact_a63(capsys):
    t0 = time.time()
    status = cli_main(["splitstats", "exact", "--n", "6", "--k", "3"])
    rendered = capsys.readouterr().out.strip()
    elapsed = time.time() - t0
    expected = "29/80 q^6 - 11/16 q^5 + 5/16 q^4 - 5/16 q^3 + 13/40 q^2"
    with capsys.disabled():
        _report(
            1,
            status == 0 and rendered == expected and elapsed < 1.0,
            "splitstats exact --n 6 --k 3 -> %s in %.3fs" % (rendered, elapsed),
        )


def test_criterion_02_squarefree_identity(capsys):
    t0 = time.time()
    ok = True
    for n in range(1, 9):
        poly = ss.count_squarefree_with_factor(n, 0)
        if n == 1:
            # every monic linear is square-free: the count is q (the closed
            # form q^n - q^(n-1) starts at n = 2)
            ok &= poly.coeffs == {1: Fraction(1)}
        else:
            ok &= poly.coeffs == {n: Fraction(1), n - 1: Fraction(-1)}
        for q in (2, 3):
            count = 0
            for tail in product(range(q), repeat=n):
                if is_squarefree(UniPoly(list(tail) + [1], q)):
                    count += 1
            ok &= count == poly.evaluate(q)
            if n >= 2:
                ok &= count == q**n - q ** (n - 1)
    elapsed = time.time() - t0
    with capsys.disabled():
        _report(2, ok and elapsed < 10.0, "A(n,0,q) = q^n - q^(n-1), n <= 8, exhaustive over GF(2), GF(3); %.1fs" % elapsed)


def test_criterion_03_exact_a_30_20(capsys):
    t0 = time.time()
    poly = ss.count_squarefree_with_factor(30, 20)
    value = poly.evaluate(ACCEPTANCE_PRIME) / Fraction(ACCEPTANCE_PRIME) ** 30
    lead = poly.coeffs[poly.degree()]
    limit = ss.limit_fraction(30, 20)
    elapsed = time.time() - t0
    ok = (
        abs(float(value) - 0.385426) <= 1e-5
        and lead == limit
        and abs(float(lead) - 0.385481) <= 1e-5
        and elapsed < 60.0
    )
    with capsys.disabled():
        _report(
            3,
            ok,
            "A(30,20,%d)/q^30 = %.6f, leading coefficient %.6f; %.1fs"
            % (ACCEPTANCE_PRIME, float(value), float(lead), elapsed),
        )


def test_criterion_04_limit_p_30_1(capsys):
    t0 = time.time()
    value = float(ss.limit_fraction(30, 1))
    elapsed = time.time() - t0
    ok = abs(value - (1 - math.exp(-1))) <= 1e-6 and elapsed < 10.0
    with capsys.disabled():
        _report(4, ok, "p(30,1) = %.7f vs 1 - 1/e = %.7f; %.1fs" % (value, 1 - math.exp(-1), elapsed))


def test_criterion_05_montecarlo(capsys):
    t0 = time.time()
    successes, fraction = ss.montecarlo_split_fraction(
        30, 20, ACCEPTANCE_PRIME, 10000, seed=ACCEPTANCE_SEED, workers=2
    )
    elapsed = time.time() - t0
    ok = abs(float(fraction) - 0.385) <= 0.02 and elapsed < 60.0
    with capsys.disabled():
        _report(5, ok, "%d/10000 = %.4f random split fraction; %.1fs" % (successes, float(fraction), elapsed))


def test_criterion_06_enumeration_bound(capsys):
    t0 = time.time()
    status = cli_main(["hv", "enumerate", "--smax", "8"])
    lines = capsys.readouterr().out.strip().splitlines()
    cands = enumerate_candidates(8)
    max_d = max(c.d for c in cands)
    max_s = max(parse_gorenstein_type(c.h).s for c in cands)
    elapsed = time.time() - t0
    ok = (
        status == 0
        and len(lines) == len(cands)
        and max(int(line.split()[1]) for line in lines) == 47
        and max_d == 47
        and max_s == 5
        and elapsed < 10.0
    )
    with capsys.disabled():
        _report(6, ok, "%d candidates, max d = %d, max s = %d; %.1fs" % (len(cands), max_d, max_s, elapsed))


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


def test_criterion_07_finite_projection_rows(capsys):
    t0 = time.time()
    ok = all(family_dim_of(h) == 3 * d for d, h in FINITE_PROJECTION_ROWS)
    elapsed = time.time() - t0
    with capsys.disabled():
        _report(7, ok and elapsed < 1.0, "g(h) = 3d on all nine finite-projection rows; %.2fs" % elapsed)


def test_criterion_08_exclusion_table(capsys):
    t0 = time.time()
    ok = all(acm_curve_exclusion(h, d) for d, h in ACM_EXCLUSION_ROWS)
    dm1 = generic_degree_matrix((1, 3, 6, 6, 6, 3, 1))
    dm2 = generic_degree_matrix((1, 3, 6, 6, 6, 6, 3, 1))
    ok &= dm1.free_module_split() == ([(3, -4), (4, -6)], [(3, -5), (4, -3)])
    ok &= dm2.free_module_split() == ([(3, -4), (4, -7)], [(3, -6), (4, -3)])
    elapsed = time.time() - t0
    with capsys.disabled():
        _report(8, ok and elapsed < 1.0, "nine rows excluded and both free-module splits match; %.2fs" % elapsed)


def test_criterion_09_small_link(capsys):
    t0 = time.time()
    verdicts = []
    verified = None
    for seed in range(5):
        cert = verify_edge((1, 3, 3, 1), 7, 101, seed=seed)
        verdicts.append(cert.verdict)
        if cert.verdict == "verified" and verified is None:
            verified = cert
    elapsed = time.time() - t0
    ok = (
        verified is not None
        and verified.hom_IX == 0
        and verified.gdim == 21
        and all(v in ("verified", "inconclusive") for v in verdicts)
        and elapsed < 60.0
    )
    with capsys.disabled():
        _report(9, ok, "verdicts %s, hom_IX = %s; %.1fs" % (verdicts, getattr(verified, "hom_IX", None), elapsed))


def test_criterion_10_flagship_link(capsys):
    t0 = time.time()
    cert = verify_edge((1, 3, 6, 10, 6, 3, 1), 20, ACCEPTANCE_PRIME, seed=ACCEPTANCE_SEED)
    cert21 = verify_edge((1, 3, 6, 10, 6, 3, 1), 21, ACCEPTANCE_PRIME, seed=ACCEPTANCE_SEED)
    elapsed = time.time() - t0
    ok = (
        cert.verdict == "verified"
        and (cert.hom_IX, cert.hom_IY, cert.hom_SG) == (3, 33, 63)
        and cert.attempt < 50
        and cert21.verdict == "verified"
        and cert21.hom_IX == 0
        and elapsed < 900.0
    )
    with capsys.disabled():
        _report(
            10,
            ok,
            "20-10: %s dims (%s,%s,%s) attempt %s; 21-9: %s hom_IX=%s; %.1fs"
            % (cert.verdict, cert.hom_IX, cert.hom_IY, cert.hom_SG, cert.attempt,
               cert21.verdict, cert21.hom_IX, elapsed),
        )


# ---------------------------------------------------------------------------
# the graph run: shared store for criteria 11, 12, 13


def _candidates():
    return [c for c in enumerate_candidates(6) if c.status != "excluded-acm"]


def _search_job(job):
    h_csv, d = job
    from gorlink.hvectors import HVector

    return verify_edge(
        HVector.from_csv(h_csv), d, ACCEPTANCE_PRIME, ACCEPTANCE_SEED
    )


@pytest.fixture(scope="module")
def full_search():
    jobs = [(c.h.csv(), c.d) for c in _candidates()]
    with worker_pool(2) as pool:
        return list(pool.map(_search_job, jobs))


@pytest.fixture(scope="module")
def full_store(full_search, tmp_path_factory):
    store = str(tmp_path_factory.mktemp("acceptance_store"))
    for cert in full_search:
        save_certificate(cert, store)
    return store


def test_criterion_11_smoothness_consistency(full_store, capsys):
    certs, _ = load_certificates(full_store)
    verified = [c for c in certs if c.verdict == "verified"]
    ok = bool(verified) and all(c.hom_SG == c.gdim for c in verified)
    with capsys.disabled():
        _report(11, ok, "hom(S_G) = g(h) on all %d verified certificates" % len(verified))


def test_criterion_12_additivity(full_store, capsys):
    certs, _ = load_certificates(full_store)
    verified = [c for c in certs if c.verdict == "verified"]
    ok = bool(verified) and all(
        additivity_shift(c.h, c.h_x, c.h_y) is not None for c in verified
    )
    with capsys.disabled():
        _report(12, ok, "h_X + shifted reverse(h_Y) = h_G on all %d verified certificates" % len(verified))


def test_criterion_13_graph_component(full_store, capsys):
    t0 = time.time()
    graph, report = build_graph(full_store)
    comp = glicci_component(graph)
    edge_pairs = {(a, b) for a, b, _ in graph.edges}
    ok = not report
    ok &= (20, 10) in edge_pairs and (21, 9) in edge_pairs
    ok &= all(n in comp for n in range(1, 21))
    ok &= all(n not in comp for n in (34, 35, 36)) and all(
        n not in comp for n in range(39, 48)
    )
    ok &= comp == set(range(1, 34)) | {37, 38}
    elapsed = time.time() - t0
    with capsys.disabled():
        _report(
            13,
            ok,
            "component of 1 = %s; %d edges; %.1fs" % (sorted(comp), len(graph.edges), elapsed),
        )


def _replay_job(cert):
    return replay_certificate(cert)[0]


def test_criterion_14_replay(full_search, full_store, capsys):
    t0 = time.time()
    certs, errors = load_certificates(full_store)
    with worker_pool(2) as pool:
        replayed = list(pool.map(_replay_job, certs))
    elapsed = time.time() - t0
    roundtrip = [parse_certificate(serialize_certificate(c)) == c for c in full_search]
    ok = not errors and len(certs) == len(full_search) and all(replayed) and all(roundtrip)
    with capsys.disabled():
        _report(
            14,
            ok,
            "%d/%d stored certificates replay ok, %d/%d searched ones round-trip; %.1fs"
            % (sum(replayed), len(full_search), sum(roundtrip), len(full_search), elapsed),
        )
