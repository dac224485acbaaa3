"""Command-line interface.

Subcommands:
  splitstats exact|limit|montecarlo   exact and empirical split fractions
  hv enumerate|gdim|parse             h-vector classification
  link search|verify|replay           link verification and certificates
  graph build|glicci|dot              the linkage graph and its component

Exit codes: 0 success, 2 inconclusive verification, 3 refuted,
4 input error.  Every randomized run prints its effective seed.

Text formats (all line-oriented UTF-8, bit-exact across runs):
  candidate lines    "<h csv> <d> <e> <gdim> <status>", e.g.
                     "1,3,6,10,6,3,1 20 10 63 admissible"
  fractions          "num/den (decimal to 6 places)"
  certificates       fixed field order h; d; e; p; seed; attempt;
                     matrix block; ell; xh; factor; dims; h_x; h_y;
                     tests; verdict (see gorlink.store)
  DOT                nodes ascending, edges sorted by (min, max, h)
"""

import argparse
import sys
from fractions import Fraction

from . import splitstats as ss
from ._workers import worker_pool
from .gf import is_odd_prime
from .hvectors import (
    HVector,
    enumerate_candidates,
    family_dim_of,
    parse_gorenstein_type,
)
from .tangent import verify_edge, replay_certificate, DEFAULT_MAX_ATTEMPTS
from .store import load_certificates, save_certificate, write_index
from .graph import build_graph, glicci_component, emit_dot

DEFAULT_PRIME = 10007
DEFAULT_SEED = 0

STATUS_OK = 0
STATUS_INCONCLUSIVE = 2
STATUS_REFUTED = 3
STATUS_INPUT_ERROR = 4


def _decimal(x, places=6):
    return ("%."
            + str(places)
            + "f") % float(Fraction(x))


def _print_fraction(label, value):
    print("%s = %s/%s (%s)" % (label, value.numerator, value.denominator, _decimal(value)))


class InputError(ValueError):
    """Bad command-line input; maps to exit code 4."""


def _parse_hvector(text):
    try:
        return HVector.from_csv(text)
    except Exception as exc:
        raise InputError("bad h-vector %r: %s" % (text, exc))


def _is_prime_power(q):
    """Is 2 <= q < 2**64 a power of a prime, the size of a finite field?"""
    if not 2 <= q < 1 << 64:
        return False
    if q == 2 or is_odd_prime(q):
        return True
    for e in range(2, q.bit_length() + 1):
        r = round(q ** (1 / e))  # the e-th root is below 2**32, within 1
        for c in (r - 1, r, r + 1):
            if c ** e == q and (c == 2 or is_odd_prime(c)):
                return True
    return False


def _cmd_splitstats_exact(args):
    if args.q is not None and not _is_prime_power(args.q):
        raise InputError("--q must be a field size, a prime power below 2**64, got %d" % args.q)
    poly = ss.count_squarefree_with_factor(args.n, args.k)
    print(poly.format())
    if args.q is not None:
        value = poly.evaluate(args.q) / Fraction(args.q) ** args.n
        _print_fraction("A(%d,%d,%d)/q^%d" % (args.n, args.k, args.q, args.n), value)
    return STATUS_OK


def _cmd_splitstats_limit(args):
    value = ss.limit_fraction(args.n, args.k)
    _print_fraction("p(%d,%d)" % (args.n, args.k), value)
    return STATUS_OK


def _cmd_splitstats_montecarlo(args):
    print("seed: %d" % args.seed)
    successes, fraction = ss.montecarlo_split_fraction(
        args.n, args.k, args.p, args.trials, args.seed, workers=args.jobs
    )
    print("successes: %d/%d" % (successes, args.trials))
    _print_fraction("fraction", fraction)
    return STATUS_OK


def _cmd_hv_enumerate(args):
    cands = enumerate_candidates(args.smax)
    if args.max_degree is not None:
        cands = [c for c in cands if c.h.degree <= args.max_degree]
    for c in cands:
        print(c.line())
    return STATUS_OK


def _cmd_hv_gdim(args):
    h = _parse_hvector(args.hvector)
    t = parse_gorenstein_type(h)
    if t is None:
        raise InputError("%s is not an admissible Gorenstein h-vector" % h.csv())
    print("kind=%s s=%d c=%d gdim=%d" % (t.kind, t.s, t.c, family_dim_of(h)))
    return STATUS_OK


def _cmd_hv_parse(args):
    h = _parse_hvector(args.hvector)
    t = parse_gorenstein_type(h)
    if t is None:
        print("invalid")
    else:
        print("kind=%s s=%d c=%d" % (t.kind, t.s, t.c))
    return STATUS_OK


def _verdict_status(verdict):
    return {
        "verified": STATUS_OK,
        "inconclusive": STATUS_INCONCLUSIVE,
        "refuted": STATUS_REFUTED,
    }[verdict]


def _print_certificate(cert):
    print(
        "h=%s d=%d e=%d p=%d seed=%d attempt=%s verdict=%s"
        % (cert.h.csv(), cert.d, cert.e, cert.p, cert.seed, cert.attempt, cert.verdict)
    )
    if cert.hom_IX is not None:
        print(
            "dims: hom_IX=%d hom_IY=%d hom_SG=%d gdim=%d"
            % (cert.hom_IX, cert.hom_IY, cert.hom_SG, cert.gdim)
        )


def _cmd_link_verify(args):
    h = _parse_hvector(args.hvector)
    print("seed: %d" % args.seed)
    cert = verify_edge(h, args.d, args.p, args.seed, max_attempts=args.max_attempts)
    _print_certificate(cert)
    if args.store:
        path = save_certificate(cert, args.store)
        write_index(args.store)
        print("stored: %s" % path)
    return _verdict_status(cert.verdict)


def _search_one(job):
    h_csv, d, p, seed, max_attempts = job
    cert = verify_edge(HVector.from_csv(h_csv), d, p, seed, max_attempts=max_attempts)
    return cert


def _cmd_link_search(args):
    print("seed: %d" % args.seed)
    cands = enumerate_candidates(args.smax)
    if args.max_degree is not None:
        cands = [c for c in cands if c.h.degree <= args.max_degree]
    if not args.include_excluded:
        cands = [c for c in cands if c.status != "excluded-acm"]
    jobs = [
        (c.h.csv(), c.d, args.p, args.seed, args.max_attempts)
        for c in cands
    ]
    if args.jobs and args.jobs > 1:
        with worker_pool(args.jobs) as pool:
            certs = list(pool.map(_search_one, jobs))
    else:
        certs = [_search_one(job) for job in jobs]
    worst = STATUS_OK
    for cert in certs:
        _print_certificate(cert)
        if args.store:
            save_certificate(cert, args.store)
        worst = max(worst, _verdict_status(cert.verdict))
    if args.store:
        write_index(args.store)
    return worst


def _cmd_link_replay(args):
    certs, errors = load_certificates(args.store)
    for name, err in errors:
        print("unparsed %s: %s" % (name, err))
    bad = 0
    for cert in certs:
        ok, _, dims = replay_certificate(cert)
        status = "ok" if ok else "MISMATCH"
        print(
            "%s d=%d e=%d seed=%d verdict=%s replay=%s"
            % (cert.h.csv(), cert.d, cert.e, cert.seed, cert.verdict, status)
        )
        bad += 0 if ok else 1
    return STATUS_OK if bad == 0 and not errors else STATUS_REFUTED


def _cmd_graph_build(args):
    graph, report = build_graph(args.store, replay=args.replay)
    for line in report:
        print(line)
    for a, b, h_csv in graph.edges:
        print("%d -- %d  h=%s" % (a, b, h_csv))
    print("edges: %d" % len(graph.edges))
    return STATUS_OK


def _cmd_graph_glicci(args):
    graph, report = build_graph(args.store, replay=args.replay)
    for line in report:
        print(line)
    comp = glicci_component(graph)
    print("glicci: %s" % ",".join(map(str, sorted(comp))))
    return STATUS_OK


def _cmd_graph_dot(args):
    graph, report = build_graph(args.store, replay=args.replay)
    for line in report:
        print(line, file=sys.stderr)
    text = emit_dot(graph)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print("wrote %s" % args.out)
    else:
        print(text, end="")
    return STATUS_OK


def build_parser():
    top = argparse.ArgumentParser(
        prog="gorlink",
        description="Gorenstein linkage workbench for points in P^3",
    )
    sub = top.add_subparsers(dest="command", required=True)

    sstats = sub.add_parser("splitstats", help="split-polynomial statistics")
    ssub = sstats.add_subparsers(dest="sub", required=True)
    ex = ssub.add_parser("exact", help="A(n,k,q) as an exact polynomial in q")
    ex.add_argument("--n", type=int, required=True)
    ex.add_argument("--k", type=int, required=True)
    ex.add_argument("--q", type=int, default=None, help="also evaluate at this q")
    ex.set_defaults(func=_cmd_splitstats_exact)
    lim = ssub.add_parser("limit", help="p(n,k), the q -> infinity limit")
    lim.add_argument("--n", type=int, required=True)
    lim.add_argument("--k", type=int, required=True)
    lim.set_defaults(func=_cmd_splitstats_limit)
    mc = ssub.add_parser("montecarlo", help="random-trial split fraction")
    mc.add_argument("--n", type=int, required=True)
    mc.add_argument("--k", type=int, required=True)
    mc.add_argument("--p", type=int, default=DEFAULT_PRIME, help="field size (default %d)" % DEFAULT_PRIME)
    mc.add_argument("--trials", type=int, default=10000)
    mc.add_argument("--seed", type=int, default=DEFAULT_SEED)
    mc.add_argument("--jobs", type=int, default=1)
    mc.set_defaults(func=_cmd_splitstats_montecarlo)

    hv = sub.add_parser("hv", help="h-vector classification")
    hsub = hv.add_subparsers(dest="sub", required=True)
    he = hsub.add_parser("enumerate", help="all candidate links")
    he.add_argument("--smax", type=int, default=6)
    he.add_argument("--max-degree", type=int, default=None)
    he.set_defaults(func=_cmd_hv_enumerate)
    hg = hsub.add_parser("gdim", help="family dimension of an h-vector")
    hg.add_argument("--h", dest="hvector", required=True, help="comma-separated entries")
    hg.set_defaults(func=_cmd_hv_gdim)
    hp = hsub.add_parser("parse", help="type parameters of an h-vector")
    hp.add_argument("--h", dest="hvector", required=True)
    hp.set_defaults(func=_cmd_hv_parse)

    link = sub.add_parser("link", help="verify bi-dominant links")
    lsub = link.add_subparsers(dest="sub", required=True)
    lv = lsub.add_parser("verify", help="verify one candidate")
    lv.add_argument("--h", dest="hvector", required=True)
    lv.add_argument("--d", type=int, required=True)
    lv.add_argument("--p", type=int, default=DEFAULT_PRIME)
    lv.add_argument("--seed", type=int, default=DEFAULT_SEED)
    lv.add_argument("--max-attempts", type=int, default=DEFAULT_MAX_ATTEMPTS)
    lv.add_argument("--store", default=None)
    lv.set_defaults(func=_cmd_link_verify)
    ls = lsub.add_parser("search", help="verify all candidates")
    ls.add_argument("--smax", type=int, default=6)
    ls.add_argument("--max-degree", type=int, default=None)
    ls.add_argument("--p", type=int, default=DEFAULT_PRIME)
    ls.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ls.add_argument("--max-attempts", type=int, default=DEFAULT_MAX_ATTEMPTS)
    ls.add_argument("--store", default=None)
    ls.add_argument("--jobs", type=int, default=1)
    ls.add_argument("--include-excluded", action="store_true",
                    help="also run candidates the ACM-curve rule excludes")
    ls.set_defaults(func=_cmd_link_search)
    lr = lsub.add_parser("replay", help="recompute stored certificates")
    lr.add_argument("--store", required=True)
    lr.set_defaults(func=_cmd_link_replay)

    graph = sub.add_parser("graph", help="linkage graph operations")
    gsub = graph.add_subparsers(dest="sub", required=True)
    for name, fn in (
        ("build", _cmd_graph_build),
        ("glicci", _cmd_graph_glicci),
        ("dot", _cmd_graph_dot),
    ):
        g = gsub.add_parser(name)
        g.add_argument("--store", required=True)
        g.add_argument("--replay", action="store_true")
        if name == "dot":
            g.add_argument("--out", default=None)
        g.set_defaults(func=fn)

    return top


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
    except (InputError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return STATUS_INPUT_ERROR
    return status


if __name__ == "__main__":
    sys.exit(main())
