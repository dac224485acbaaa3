"""Certificate-format fuzz over the benchmark's replay fixture.

The fixture certificates of degree at most 20 serialize back to their own
bytes.  One corrupted field in a verified certificate of degree at most 9,
a changed number, a changed verdict or a deleted line, leaves a file that
either does not parse or fails replay, and so never adds an edge to the
replayed graph.  So does one term-level edit of a polynomial, ell, x_h or
a matrix entry: a constant term or a term of another degree appended, one
term deleted, or the whole replaced by 0.  The `seed` and `attempt` lines are left alone: they name
the run that found the witness, replay does not read them, and a
certificate with another seed still proves its link.
"""

import os
import re
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from gorlink.graph import build_graph
from gorlink.store import load_certificates, parse_certificate, serialize_certificate
from gorlink.tangent import replay_certificate

FIXTURE = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "fixture")
PROVENANCE = ("seed", "attempt")
EDITS = ("constant", "degree", "delete", "zero")


def _fixture_texts(max_degree):
    out = []
    for name in sorted(os.listdir(FIXTURE)):
        if name.endswith(".cert"):
            with open(os.path.join(FIXTURE, name)) as fh:
                text = fh.read()
            if parse_certificate(text).h.degree <= max_degree:
                out.append(text)
    return out


ROUND_TRIP = _fixture_texts(20)
SMALL = [t for t in ROUND_TRIP if parse_certificate(t).h.degree <= 9]


def test_fixture_certificates_round_trip():
    assert len(ROUND_TRIP) == 13 and len(SMALL) == 6
    for text in ROUND_TRIP:
        assert serialize_certificate(parse_certificate(text)) == text


def _edit_terms(value, edit, drop=0):
    """A polynomial's text after one term-level edit: a constant term or a
    term of one degree more appended, term `drop` deleted, or the whole
    replaced by 0."""
    terms = value.split(" + ")
    if edit == "constant":
        return value + " + 1"
    if edit == "degree":
        degree = sum(int(e or 1) for e in re.findall(r"x\d(?:\^(\d+))?", terms[0]))
        return value + " + x3^%d" % (degree + 1)
    if edit == "delete":
        return " + ".join(terms[:drop] + terms[drop + 1:]) or "0"
    return "0"


def _is_polynomial(line):
    key, _, value = line.partition(": ")
    return (key in ("ell", "xh") or key.startswith("m[")) and value != "0"


def _ell_plus_one():
    """A constant term appended to ell, which a replay once raised on."""
    text = SMALL[0]
    (ell,) = [line for line in text.splitlines() if line.startswith("ell: ")]
    return text, text.replace(ell, ell + " + 1")


@st.composite
def _corruptions(draw):
    """(original, corrupted) texts differing in one field: a `key: value`
    line, matrix entries included, other than the provenance lines; or one
    term-level edit (EDITS) of a nonzero polynomial line."""
    text = draw(st.sampled_from(SMALL))
    lines = text.splitlines()
    if draw(st.booleans()):
        i = draw(st.sampled_from([i for i, line in enumerate(lines) if _is_polynomial(line)]))
        key, _, value = lines[i].partition(": ")
        edit = draw(st.sampled_from(EDITS))
        drop = draw(st.integers(0, value.count(" + ")))
        lines[i] = "%s: %s" % (key, _edit_terms(value, edit, drop))
        return text, "\n".join(lines) + "\n"
    fields = [
        i for i, line in enumerate(lines)
        if ": " in line and line.partition(": ")[0] not in PROVENANCE
    ]
    i = draw(st.sampled_from(fields))
    key, _, value = lines[i].partition(": ")
    numbers = list(re.finditer(r"\d+", value))
    if draw(st.integers(0, 5)) == 0:
        del lines[i]
    elif not numbers:
        new = draw(st.sampled_from(["refuted", "inconclusive", "verifed", ""]))
        lines[i] = "%s: %s" % (key, new)
    else:
        m = draw(st.sampled_from(numbers))
        old = int(m.group())
        # a test flag reads any nonzero number as passed, so flip it
        new = 1 - old if key == "tests" else old + draw(st.integers(1, 10006))
        lines[i] = "%s: %s%d%s" % (key, value[: m.start()], new, value[m.end():])
    return text, "\n".join(lines) + "\n"


@settings(max_examples=240)
@given(_corruptions())
@example(_ell_plus_one())
def test_corrupted_certificate_never_becomes_an_edge(case):
    original, corrupted = case
    with tempfile.TemporaryDirectory() as store:
        with open(os.path.join(store, "edge.cert"), "w") as fh:
            fh.write(corrupted)
        certs, errors = load_certificates(store)
        graph, report = build_graph(store, replay=True)
    assert graph.edges == ()
    if errors:
        assert len(report) == 1 and report[0].startswith("unparsed")
        return
    (cert,) = certs
    # whatever parses serializes to a fixed point, and says something other
    # than the original
    text = serialize_certificate(cert)
    assert serialize_certificate(parse_certificate(text)) == text
    assert text != original
    if cert.verdict == "verified":
        assert report == [
            "replay mismatch: d=%d e=%d h=%s seed=%d"
            % (cert.d, cert.e, cert.h.csv(), cert.seed)
        ]
    else:
        assert report == [] and not replay_certificate(cert)[0]


def test_matrix_block_must_be_complete():
    # serialize() writes the size and every entry, zeros too; a block that
    # lacks one, or misstates the size, is refused rather than read as the
    # same matrix
    (text,) = [t for t in ROUND_TRIP if "]: 0\n" in t]
    zero = next(line for line in text.splitlines() if line.endswith("]: 0"))
    size = next(line for line in text.splitlines() if line.startswith("size: "))
    n = int(size.split(": ")[1])
    for bad in (text.replace(zero + "\n", ""), text.replace(size + "\n", ""),
                text.replace(size, "size: %d" % (n + 1))):
        with pytest.raises((KeyError, ValueError)):
            parse_certificate(bad)
