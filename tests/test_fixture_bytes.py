"""Certificates must stay the same byte for byte for the same (h, d, p, seed).

The benchmark's replay fixture holds certificates that `gorlink link verify`
wrote at p = 10007 with seed 2024; every one of degree at most 20 is
verified again here and serialized, and the text must equal the file.
"""

import os

from gorlink.store import parse_certificate, serialize_certificate
from gorlink.tangent import verify_edge

FIXTURE = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "fixture")
MAX_DEGREE = 20


def test_verify_edge_reproduces_fixture_bytes():
    checked = 0
    for name in sorted(os.listdir(FIXTURE)):
        if not name.endswith(".cert"):
            continue
        with open(os.path.join(FIXTURE, name)) as fh:
            text = fh.read()
        cert = parse_certificate(text)
        if cert.h.degree > MAX_DEGREE:
            continue
        again = verify_edge(cert.h, cert.d, 10007, 2024)
        assert serialize_certificate(again) == text, name
        checked += 1
    assert checked == 13
