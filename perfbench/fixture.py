"""Rebuild the replay fixture, or print a digest of the desk store's bytes.

    python3 perfbench/fixture.py rebuild
    python3 perfbench/fixture.py digest [--seed 2024]

Both run the program's own command line at p = 10007, by default with the
reference seed 2024.
`rebuild` rewrites perfbench/fixture/ from scratch with `gorlink link verify
--store` for each fixture link.  `digest` runs `gorlink link search` over the
desk set (the 59 non-excluded candidates of degree <= 40) into a scratch
store, prints one SHA-256 line per certificate file of that store plus a
digest over all of them in name order (equal digests mean equal bytes), and
checks the desk graph: the component of 1 holds 1..20 and none of 34-36 or
39-47.
"""

import argparse
import contextlib
import hashlib
import io
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from gorlink import cli  # noqa: E402
from gorlink.graph import build_graph, glicci_component  # noqa: E402
from gorlink.hvectors import enumerate_candidates  # noqa: E402

from reference import component_of_one  # noqa: E402
from workloads import DESK_MAX_DEGREE, P, REFERENCE_SEED, desk_candidates  # noqa: E402

FIXTURE = os.path.join(HERE, "fixture")
# One replay round replays the fixture twice (once per certificate, once in
# build_graph(replay=True)) and must stay near 8 s so that a 30 s run holds
# three rounds.  Small desk h-vectors cost 0.01-0.2 s each to replay; of the
# extended range (degree > 40) this one, degree 64, is the cheapest timed
# (2.3 s); degree 51 takes 2.6 s and degree 91 takes 21 s.
SMALL_DESK_DEGREE = 20
EXTENDED = [("1,3,6,10,12,12,10,6,3,1", 32)]
DESK_IN_COMPONENT = set(range(1, 21))
DESK_NOT_IN_COMPONENT = {34, 35, 36} | set(range(39, 48))


def fixture_links():
    """One desk candidate per h-vector of degree <= 20 (the largest d), plus
    EXTENDED."""
    seen, out = set(), []
    for c in desk_candidates(enumerate_candidates(6)):
        if c.h.degree <= SMALL_DESK_DEGREE and c.h.entries not in seen:
            seen.add(c.h.entries)
            out.append((c.h.csv(), c.d))
    return out + EXTENDED


def gorlink(*args):
    """Run the gorlink command line quietly; its exit status."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in args])


def rebuild():
    os.makedirs(FIXTURE, exist_ok=True)
    for name in os.listdir(FIXTURE):
        os.unlink(os.path.join(FIXTURE, name))
    links = fixture_links()
    for h_csv, d in links:
        status = gorlink("link", "verify", "--h", h_csv, "--d", d, "--p", P,
                         "--seed", REFERENCE_SEED, "--store", FIXTURE)
        if status != cli.STATUS_OK:
            raise SystemExit("%s d=%d did not verify (exit %d)" % (h_csv, d, status))
    print("wrote %d certificates to %s" % (len(links), os.path.relpath(FIXTURE, ROOT)))
    return 0


def digest(seed):
    store = os.path.join(ROOT, ".bench_out", "digest-%d" % os.getpid())
    shutil.rmtree(store, ignore_errors=True)
    try:
        status = gorlink("link", "search", "--smax", 6, "--max-degree", DESK_MAX_DEGREE,
                         "--p", P, "--seed", seed, "--store", store, "--jobs", os.cpu_count() or 1)
        names = sorted(n for n in os.listdir(store) if n.endswith(".cert"))
        total = hashlib.sha256()
        for name in names:
            with open(os.path.join(store, name), "rb") as fh:
                data = fh.read()
            print("%s  %s" % (hashlib.sha256(data).hexdigest(), name))
            total.update(name.encode() + b"\0" + data)
        g, report = build_graph(store)
        comp = glicci_component(g)
    finally:
        shutil.rmtree(store, ignore_errors=True)
    wrong = []
    if len(names) != len(desk_candidates(enumerate_candidates(6))):
        wrong.append("%d certificate files for the desk set" % len(names))
    if report:
        wrong.append("graph report: %r" % report)
    if comp != component_of_one((a, b) for a, b, _ in g.edges) & set(g.nodes):
        wrong.append("glicci component differs from a breadth-first search")
    if not DESK_IN_COMPONENT <= comp:
        wrong.append("component of 1 misses %s" % sorted(DESK_IN_COMPONENT - comp))
    if comp & DESK_NOT_IN_COMPONENT:
        wrong.append("component of 1 holds %s" % sorted(comp & DESK_NOT_IN_COMPONENT))
    print("seed %d: link search exit %d, component of 1: %s" % (seed, status, sorted(comp)))
    for line in wrong:
        print("WRONG %s" % line)
    print("desk store digest (%d certificates): %s" % (len(names), total.hexdigest()))
    return 0 if status == cli.STATUS_OK and not wrong else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("command", choices=["rebuild", "digest"])
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED, help="search seed of `digest`")
    args = parser.parse_args(argv)
    return rebuild() if args.command == "rebuild" else digest(args.seed)


if __name__ == "__main__":
    sys.exit(main())
