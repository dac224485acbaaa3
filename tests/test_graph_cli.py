import os
import pickle
import tracemalloc

import pytest

from gorlink import tangent
from gorlink.cli import main
from gorlink.groebner import GradedSpaces
from gorlink.graph import LinkageGraph, build_graph, emit_dot, glicci_component
from gorlink.store import (
    load_certificates,
    parse_certificate,
    save_certificate,
    serialize_certificate,
    write_index,
)
from gorlink.splitstats import EXACT_CAP, LIMIT_CAP, montecarlo_split_fraction
from gorlink.tangent import verify_edge, replay_certificate


@pytest.fixture(scope="module")
def small_cert():
    cert = verify_edge((1, 3, 3, 1), 7, 101, seed=0)
    assert cert.verdict == "verified"
    return cert


def test_certificate_roundtrip(small_cert):
    text = serialize_certificate(small_cert)
    back = parse_certificate(text)
    assert serialize_certificate(back) == text
    assert back.h == small_cert.h and back.verdict == "verified"
    assert back.matrix == small_cert.matrix
    assert back == small_cert  # the certificate the search made
    ok, _, dims = replay_certificate(back)
    assert ok and dims == (0, 18, 21)


def test_pickle_roundtrip_keeps_values_and_bytes(small_cert):
    """--jobs workers send certificates back by pickle.  A form pickles as
    its degree, coefficient vector and modulus, and comes back read-only;
    replaying the certificate leaves its pickled bytes as they were."""
    cert = parse_certificate(serialize_certificate(small_cert))  # nothing cached
    f = cert.matrix.upper[(0, 1)]
    before = pickle.dumps(f)
    cert_bytes = pickle.dumps(cert)
    degree, coeffs, p = f.__reduce__()[1]
    assert (degree, p) == (f.degree, f.p) and coeffs is f.coeffs
    assert not f.coeffs.flags.writeable
    back = pickle.loads(before)
    assert back == f and hash(back) == hash(f) and back.render() == f.render()
    assert not back.coeffs.flags.writeable
    assert pickle.dumps(back) == before
    assert replay_certificate(cert)[0]
    assert pickle.dumps(cert) == cert_bytes
    again = pickle.loads(cert_bytes)
    assert again.matrix == cert.matrix and again.witness.xh == cert.witness.xh
    assert serialize_certificate(again) == serialize_certificate(small_cert)
    assert pickle.dumps(again) == cert_bytes


def test_store_roundtrip(tmp_path, small_cert):
    path = save_certificate(small_cert, str(tmp_path))
    assert os.path.basename(path).startswith("edge_7_1_")
    certs, errors = load_certificates(str(tmp_path))
    assert len(certs) == 1 and not errors
    write_index(str(tmp_path))
    assert (tmp_path / "index.txt").read_text().startswith("1,3,3,1 d=7")


def test_inconclusive_certificate_roundtrip(tmp_path):
    # max_attempts=0 forces an inconclusive verdict with no witness data
    cert = verify_edge((1, 3, 3, 1), 7, 101, seed=0, max_attempts=0)
    assert cert.verdict == "inconclusive" and cert.matrix is None
    text = serialize_certificate(cert)
    back = parse_certificate(text)
    assert back.verdict == "inconclusive" and back.matrix is None
    assert serialize_certificate(back) == text
    # it states no gdim, and its file has no dims line
    assert back == cert and cert.gdim is None
    ok, _, _ = replay_certificate(back)
    assert ok  # an inconclusive certificate replays as itself
    # and it contributes no edge to the graph
    save_certificate(cert, str(tmp_path))
    graph, report = build_graph(str(tmp_path))
    assert graph.edges == () and not report


def test_verify_edge_deterministic(small_cert):
    again = verify_edge((1, 3, 3, 1), 7, 101, seed=0)
    assert serialize_certificate(again) == serialize_certificate(small_cert)


def test_replay_detects_tampering(tmp_path, small_cert):
    path = save_certificate(small_cert, str(tmp_path))
    text = open(path).read()
    tampered = text.replace("hom_IX=0", "hom_IX=1")
    open(path, "w").write(tampered)
    certs, errors = load_certificates(str(tmp_path))
    assert not errors
    ok, _, dims = replay_certificate(certs[0])
    assert not ok and dims[0] == 0  # recomputation exposes the edit
    graph, report = build_graph(str(tmp_path), replay=True)
    assert graph.edges == ()
    assert any("replay mismatch" in line for line in report)


def _set_field(text, field, value):
    lines = []
    for line in text.splitlines():
        name, sep, _ = line.partition(": ")
        lines.append("%s: %s" % (name, value) if sep and name == field else line)
    out = "\n".join(lines) + "\n"
    assert out != text
    return out


def test_replay_rejects_corrupted_claims(tmp_path, small_cert):
    # e, h_x and h_y are claims too: replay recomputes them, and a
    # certificate that misstates one adds no edge to the replayed graph
    text = serialize_certificate(small_cert)
    assert "\ne: 1\n" in text and "\nh_x: 1,3,3\n" in text and "\nh_y: 1\n" in text
    for field, value in (("e", "2"), ("h_x", "1,3,4"), ("h_y", "2"),
                         ("factor", "1," + text.split("factor: ")[1].split(",", 1)[1])):
        store = tmp_path / field
        store.mkdir()
        (store / "edge.cert").write_text(_set_field(text, field, value))
        certs, errors = load_certificates(str(store))
        assert not errors
        ok, _, _ = replay_certificate(certs[0])
        assert not ok, field
        graph, report = build_graph(str(store), replay=True)
        assert graph.edges == (), field
        assert any("replay mismatch" in line for line in report)


FIXTURE_7_1 = os.path.join(
    os.path.dirname(__file__), os.pardir, "perfbench", "fixture", "edge_7_1_0a09c033_2024.cert"
)


def test_replay_checks_family_dimension(tmp_path, capsys):
    # a misstated gdim with the flags and verdict it would imply is
    # consistent with itself; replay compares gdim with g(h)
    text = open(FIXTURE_7_1).read()
    text = text.replace("gdim=21", "gdim=22")
    text = text.replace("hom_IX=1 hom_IY=1 smooth_SG=1", "hom_IX=0 hom_IY=0 smooth_SG=0")
    text = _set_field(text, "verdict", "refuted")
    (tmp_path / "edge.cert").write_text(text)
    certs, errors = load_certificates(str(tmp_path))
    assert not errors and certs[0].gdim == 22
    assert not replay_certificate(certs[0])[0]
    status, out = _run_cli(["link", "replay", "--store", str(tmp_path)], capsys)
    assert status == 3 and "replay=MISMATCH" in out


@pytest.mark.parametrize(
    "field, value",
    [
        # with one entry zero the Pfaffians cut out a curve, whose Hilbert
        # function never stabilizes
        ("m[0][1]", "0"),
        # of degree 8, so e = 1 still holds, but not a Gorenstein h-vector
        ("h", "1,3,2,2"),
    ],
)
def test_replay_reports_a_bad_certificate(tmp_path, small_cert, capsys, field, value):
    # a mismatch for the bad certificate alone, not a failure of the store
    save_certificate(small_cert, str(tmp_path))
    bad = _set_field(open(FIXTURE_7_1).read(), field, value)
    (tmp_path / "bad.cert").write_text(bad)
    certs, errors = load_certificates(str(tmp_path))
    assert len(certs) == 2 and not errors
    graph, report = build_graph(str(tmp_path), replay=True)
    assert graph.edges == ((7, 1, "1,3,3,1"),)
    bad_h = value if field == "h" else "1,3,3,1"
    assert report == ["replay mismatch: d=7 e=1 h=%s seed=2024" % bad_h]
    status, out = _run_cli(["link", "replay", "--store", str(tmp_path)], capsys)
    assert status == 3
    assert out.count("replay=MISMATCH") == 1 and out.count("replay=ok") == 1


def test_forged_witness_forms_are_unparsed(tmp_path, capsys):
    # ell and x_h must be nonzero linear forms: one with a constant term,
    # the zero form and a quadric are each refused when the file is read,
    # and the good certificate beside them still replays.  x0^400 alone
    # names a vector of C(403, 3) coefficients, 87 MB: as an ell, as a
    # matrix entry off its degree, or as one whose forged socle degree
    # matches it (above len(h), which bounds the entry degrees of a
    # presentation of h), it is refused before that vector is built.  An h
    # of 400 ones would lift that bound to 400, but replay checks no h
    # longer than groebner.MAX_HF_PROBE - 1, so the reader refuses it first
    text = open(FIXTURE_7_1).read()
    ell = next(line for line in text.splitlines() if line.startswith("ell: "))
    forgeries = {
        "constant": text.replace(ell, ell + " + 1"),
        "zero": _set_field(text, "ell", "0"),
        "quadric": _set_field(text, "xh", "x0^2"),
        "ell_400": _set_field(text, "ell", "x0^400"),
        "entry_400": _set_field(text, "m[0][1]", "x0^400"),
        "socle_404": _set_field(_set_field(text, "socle", "404"), "m[0][1]", "x0^400"),
        "h_400": _set_field(
            _set_field(_set_field(text, "h", ",".join(["1"] * 400)), "socle", "404"),
            "m[0][1]", "x0^400"),
    }
    (tmp_path / "good.cert").write_text(text)
    for name, forged in forgeries.items():
        (tmp_path / ("%s.cert" % name)).write_text(forged)
    tracemalloc.start()
    try:
        certs, errors = load_certificates(str(tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(certs) == 1 and sorted(name for name, _ in errors) == sorted(
        "%s.cert" % name for name in forgeries)
    assert peak < 4 << 20
    graph, report = build_graph(str(tmp_path), replay=True)
    assert graph.edges == ((7, 1, "1,3,3,1"),)
    assert len(report) == len(forgeries)
    assert all(line.startswith("unparsed") for line in report)
    status, out = _run_cli(["link", "replay", "--store", str(tmp_path)], capsys)
    assert status == 3
    for name in forgeries:
        assert "unparsed %s.cert" % name in out
    assert out.count("replay=ok") == 1 and "MISMATCH" not in out


def test_replay_rejects_a_matrix_off_the_generic_layout(tmp_path, small_cert, capsys, monkeypatch):
    # a 5 x 5 matrix with quartic entries parses, but h = 1,3,3,1 calls
    # for a 3 x 3 one with quadric entries: replay reports the file before
    # taking Pfaffians of forms of that degree
    text = open(FIXTURE_7_1).read()
    head, rest = text.split("size: 3\n")
    _, tail = rest.split("end_matrix\n")
    block = ["size: 5", "gen_degrees: 1,1,1,1,1", "socle: 6"]
    block += ["m[%d][%d]: x%d^4 + %d*x3^4" % (i, j, i % 4, j + 1)
              for i in range(5) for j in range(i + 1, 5)]
    save_certificate(small_cert, str(tmp_path))
    (tmp_path / "bad.cert").write_text(head + "\n".join(block) + "\nend_matrix\n" + tail)
    certs, errors = load_certificates(str(tmp_path))
    assert len(certs) == 2 and not errors
    assert {c.matrix.size for c in certs} == {3, 5}
    sizes = []
    pfaffians = tangent.submaximal_pfaffians

    def spy(M):
        sizes.append(M.size)
        return pfaffians(M)

    monkeypatch.setattr(tangent, "submaximal_pfaffians", spy)
    graph, report = build_graph(str(tmp_path), replay=True)
    assert graph.edges == ((7, 1, "1,3,3,1"),)
    assert report == ["replay mismatch: d=7 e=1 h=1,3,3,1 seed=2024"]
    status, out = _run_cli(["link", "replay", "--store", str(tmp_path)], capsys)
    assert status == 3
    assert out.count("replay=MISMATCH") == 1 and out.count("replay=ok") == 1
    assert sizes and set(sizes) == {3}


def test_replay_stops_at_the_first_hilbert_function_difference(monkeypatch):
    # the m[0][1]: 0 forgery cuts out a curve: HF(S/I_G, 2) is 8 against
    # 1 + 3 + 3, so replay reports it there instead of growing pieces up to
    # MAX_HF_PROBE to find that the Hilbert function never stabilizes
    built = []
    piece = GradedSpaces.piece

    def spy(self, t):
        built.append(t)
        return piece(self, t)

    monkeypatch.setattr(GradedSpaces, "piece", spy)
    cert = parse_certificate(_set_field(open(FIXTURE_7_1).read(), "m[0][1]", "0"))
    assert replay_certificate(cert) == (False, {}, ())
    assert built and max(built) <= len(cert.h.entries) + 1


def test_bad_modulus_rejected_up_front(small_cert, capsys):
    text = serialize_certificate(small_cert)
    for p in (10005, (1 << 31) + 11):
        with pytest.raises(ValueError, match="odd prime"):
            verify_edge((1, 3, 3, 1), 7, p, seed=0)
        with pytest.raises(ValueError, match="odd prime"):
            montecarlo_split_fraction(30, 20, p, 10, 0)
        with pytest.raises(ValueError, match="odd prime"):
            parse_certificate(_set_field(text, "p", str(p)))
    status = main(["link", "verify", "--h", "1,3,3,1", "--d", "7", "--p", "10005"])
    assert status == 4
    assert "odd prime" in capsys.readouterr().err


def test_store_skips_malformed_with_report(tmp_path, small_cert):
    save_certificate(small_cert, str(tmp_path))
    (tmp_path / "bogus.cert").write_text("not a certificate\n")
    certs, errors = load_certificates(str(tmp_path))
    assert len(certs) == 1
    assert len(errors) == 1 and errors[0][0] == "bogus.cert"


def test_empty_graph_component():
    graph = LinkageGraph([])
    assert glicci_component(graph) == {1}


def test_toy_component():
    graph = LinkageGraph([(2, 1, "1,1,1"), (3, 2, "1,2,1")])
    assert glicci_component(graph) == {1, 2, 3}


def test_graphs_differing_in_d_max_are_unequal():
    # node 2 is in the component of 1 only when the graph has a node 2
    small = LinkageGraph([(2, 1, "1,1")], d_max=1)
    full = LinkageGraph([(1, 2, "1,1")], d_max=47)
    assert (glicci_component(small), glicci_component(full)) == ({1}, {1, 2})
    assert small != full and full != small
    same = LinkageGraph([(2, 1, "1,1")])
    assert full == same and hash(full) == hash(same) and full.nodes == tuple(range(1, 48))


def test_component_monotone_under_more_edges():
    small = LinkageGraph([(2, 1, "1,1,1")])
    big = LinkageGraph([(2, 1, "1,1,1"), (3, 2, "1,2,1"), (5, 3, "1,3,3,1")])
    assert glicci_component(small) <= glicci_component(big)


def test_emit_dot_deterministic_and_parallel_edges():
    graph = LinkageGraph([(2, 1, "1,1,1"), (2, 1, "1,2,1")])
    text = emit_dot(graph)
    assert text == emit_dot(LinkageGraph([(2, 1, "1,2,1"), (2, 1, "1,1,1")]))
    assert text.count(" -- ") == 2  # parallel edges rendered separately
    assert '1 -- 2 [label="1,1,1"];' in text
    lines = text.splitlines()
    assert lines[0] == "graph linkage {" and lines[-1] == "}"
    assert "  1;" in lines and "  47;" in lines


def test_build_graph_from_store(tmp_path, small_cert):
    save_certificate(small_cert, str(tmp_path))
    graph, report = build_graph(str(tmp_path))
    assert not report
    assert graph.edges == ((7, 1, "1,3,3,1"),)
    comp = glicci_component(graph)
    assert comp == {1, 7}
    graph2, report2 = build_graph(str(tmp_path), replay=True)
    assert graph2 == graph and not report2


def _run_cli(args, capsys):
    status = main(args)
    out = capsys.readouterr().out
    return status, out


def test_cli_splitstats_exact(capsys):
    status, out = _run_cli(["splitstats", "exact", "--n", "6", "--k", "3"], capsys)
    assert status == 0
    assert out.strip() == "29/80 q^6 - 11/16 q^5 + 5/16 q^4 - 5/16 q^3 + 13/40 q^2"


def test_cli_splitstats_input_errors(capsys):
    # a q that is no field size is refused before anything is printed
    for q in ("0", "-3", "6", "12", str(1 << 64)):
        status, out = _run_cli(["splitstats", "exact", "--n", "4", "--k", "2", "--q", q], capsys)
        assert status == 4 and out == ""
    for q in ("2", "9", "5", "8"):
        status, out = _run_cli(["splitstats", "exact", "--n", "4", "--k", "2", "--q", q], capsys)
        assert status == 0 and "A(4,2,%s)/q^4" % q in out
    for sub, n in (("limit", LIMIT_CAP + 1), ("exact", EXACT_CAP + 1)):
        assert main(["splitstats", sub, "--n", str(n), "--k", "1"]) == 4
        assert "capped" in capsys.readouterr().err


def test_cli_splitstats_limit(capsys):
    status, out = _run_cli(["splitstats", "limit", "--n", "2", "--k", "1"], capsys)
    assert status == 0
    assert "1/2" in out and "0.500000" in out


def test_cli_hv(capsys):
    status, out = _run_cli(["hv", "parse", "--h", "1,3,6,10,6,3,1"], capsys)
    assert status == 0 and out.strip() == "kind=I s=3 c=4"
    status, out = _run_cli(["hv", "gdim", "--h", "1,3,6,10,6,3,1"], capsys)
    assert status == 0 and "gdim=63" in out
    status, out = _run_cli(["hv", "enumerate", "--smax", "6"], capsys)
    assert status == 0
    lines = out.strip().splitlines()
    assert "1,3,6,10,6,3,1 20 10 63 admissible" in lines
    assert max(int(line.split()[1]) for line in lines) == 47


def test_cli_hv_parse_invalid(capsys):
    status, out = _run_cli(["hv", "parse", "--h", "1,3,2,3,1"], capsys)
    assert status == 0 and out.strip() == "invalid"


def test_cli_link_verify_and_graph(tmp_path, capsys):
    store = str(tmp_path / "store")
    status, out = _run_cli(
        ["link", "verify", "--h", "1,3,3,1", "--d", "7", "--p", "101",
         "--seed", "0", "--store", store],
        capsys,
    )
    assert status == 0
    assert "seed: 0" in out and "verdict=verified" in out
    status, out = _run_cli(["graph", "glicci", "--store", store], capsys)
    assert status == 0 and "glicci: 1,7" in out
    out_file = str(tmp_path / "g.dot")
    status, _ = _run_cli(["graph", "dot", "--store", store, "--out", out_file], capsys)
    assert status == 0
    assert '1 -- 7 [label="1,3,3,1"];' in open(out_file).read()
    status, out = _run_cli(["link", "replay", "--store", store], capsys)
    assert status == 0 and "replay=ok" in out


def test_cli_exit_codes(tmp_path, capsys):
    # refuted candidate: exit 3 (or 2 if no witness appears)
    status, _ = _run_cli(
        ["link", "verify", "--h", "1,3,3,3,1", "--d", "7", "--p", "101",
         "--seed", "0", "--max-attempts", "6"],
        capsys,
    )
    assert status in (2, 3)
    # input error: exit 4
    status = main(["hv", "gdim", "--h", "1,3,2,3,1"])
    assert status == 4
    status = main(["link", "verify", "--h", "nonsense", "--d", "3"])
    assert status == 4


def test_cli_link_search_small(tmp_path, capsys):
    store = str(tmp_path / "store")
    status, out = _run_cli(
        ["link", "search", "--smax", "1", "--p", "101", "--seed", "1",
         "--store", store, "--max-attempts", "25"],
        capsys,
    )
    assert status == 0  # every s=1 candidate verifies
    graph, _ = build_graph(store)
    comp = glicci_component(graph)
    assert {1, 2, 3, 4} <= comp


def test_cli_link_search_jobs_matches_serial(capsys, monkeypatch):
    """--jobs prints what the serial search prints, and the caller's BLAS
    thread setting is left as it was."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    argv = ["link", "search", "--smax", "1", "--p", "101", "--seed", "1",
            "--max-attempts", "25"]
    serial = _run_cli(argv, capsys)
    parallel = _run_cli(argv + ["--jobs", "2"], capsys)
    assert parallel == serial and serial[0] == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "3"
