"""The three workloads: what one round runs, and how its outputs are checked.

A round is a fixed list of operations plus the step that joins them (the graph
step, where there is one).  Rounds are whole: every round of a workload
attempts the same operations, so the share of failed operations does not
depend on how many rounds fit in a run.  Checks run after the timed rounds
and compare with reference.py, never with a stored copy of earlier output.
"""

import os
import random
import shutil
from fractions import Fraction

P = 10007
BIG_Q = 2**31 - 1
DESK_MAX_DEGREE = 40
FLAGSHIP = ((1, 3, 6, 10, 6, 3, 1), 20)
FLAGSHIP_DIMS = (3, 33, 63)
MC_N, MC_K = 30, 20
REFERENCE_SEED = 2024


def desk_candidates(cands):
    """The desk set: non-excluded candidates with h-vector degree at most 40."""
    return [c for c in cands if c.h.degree <= DESK_MAX_DEGREE and c.status != "excluded-acm"]


def spine(cands, d_max):
    """For each d = 2..d_max, the cheapest desk link from d down to a smaller e.

    Cheapest means smallest h-vector degree, then smallest e.  Each link joins
    d to a point count already joined to 1, so the component of 1 of these
    links alone is exactly {1..d_max}.
    """
    out = []
    desk = desk_candidates(cands)
    for d in range(2, d_max + 1):
        links = [c for c in desk if c.d == d and c.e < d]
        out.append(min(links, key=lambda c: (c.h.degree, c.e)))
    return out


class Workload:
    """One workload: its inputs, one round of operations, and the checks."""

    def __init__(self, mods, cands, fixture_dir, seed, smoke, scratch):
        self.m = mods
        self.cands = cands
        self.fixture_dir = fixture_dir
        self.seed = seed
        self.smoke = smoke
        self.scratch = scratch
        self.tracer = None
        self.rounds = []

    def run_round(self, r, op):
        raise NotImplementedError

    def check(self):
        """(failures, errors): failures are (operation, reason) for operations
        that failed; errors are wrong outputs of operations that did not."""
        raise NotImplementedError

    def split_keys(self):
        """(h csv, d) pairs whose split probability the trace reports."""
        return []


class DeskSearch(Workload):
    """verify_edge + save_certificate per candidate, then the graph step.

    Every round searches with the reference seed 2024, so every run does the
    same draws; --seed only orders the candidates.  For a fixed search seed
    the certificate, and so the search work, is fixed byte for byte; search
    seeds drawn from --seed made the round time spread by 16 % (interquartile
    range over median, five seeds), which would hide any smaller change.
    """

    name = "desk_search"

    def __init__(self, *args):
        super().__init__(*args)
        by_key = {(c.h.entries, c.d): c for c in self.cands}
        if self.smoke:
            links = spine(self.cands, 6) + [by_key[FLAGSHIP]]
            self.expect_nodes = set(range(1, 7))
        else:
            links = spine(self.cands, 21)
            self.expect_nodes = set(range(1, 22))
        self.links = random.Random(self.seed).sample(links, len(links))

    def split_keys(self):
        return [(c.h.csv(), c.d) for c in self.links]

    def run_round(self, r, op):
        tangent, store, graph = self.m["tangent"], self.m["store"], self.m["graph"]
        store_dir = os.path.join(self.scratch, "desk-%d-%d" % (len(self.rounds), r))
        certs = []
        for c in self.links:
            if self.tracer is not None:
                self.tracer.op_meta = (c.h.csv(), c.d)

            def verify_and_save(c=c):
                cert = tangent.verify_edge(c.h, c.d, P, REFERENCE_SEED)
                store.save_certificate(cert, store_dir)
                return cert

            cert = op("verify", verify_and_save)
            certs.append(cert)
            if self.tracer is not None:
                self.tracer.counts["tangent.attempts"] += cert.attempt + 1
        g, report = graph.build_graph(store_dir)
        comp = graph.glicci_component(g)
        shutil.rmtree(store_dir)
        self.rounds.append((certs, g, report, comp))

    def check(self):
        from reference import component_of_one

        failures, errors = [], []
        for certs, g, report, comp in self.rounds:
            verified = []
            for c, cert in zip(self.links, certs):
                label = "%s d=%d seed=%d" % (c.h.csv(), c.d, cert.seed)
                if cert.verdict != "verified":
                    failures.append((label, "verdict %s after %d attempts" % (cert.verdict, cert.attempt)))
                    continue
                verified.append(cert)
                errors += ["%s: %s" % (label, e) for e in _certificate_errors(cert, c)]
                if (cert.h.entries, cert.d) == FLAGSHIP and (cert.hom_IX, cert.hom_IY, cert.hom_SG) != FLAGSHIP_DIMS:
                    errors.append("%s: flagship dims %r" % (label, (cert.hom_IX, cert.hom_IY, cert.hom_SG)))
            if report:
                errors.append("graph report: %r" % report)
            expect_edges = {(max(c.d, c.e), min(c.d, c.e), c.h.csv()) for c in verified}
            if set(g.edges) != expect_edges:
                errors.append("graph edges differ from the verified certificates")
            if comp != component_of_one((a, b) for a, b, _ in expect_edges) & set(g.nodes):
                errors.append("glicci component differs from a breadth-first search")
            # the spine joins exactly 1..d_max; smoke mode's flagship link
            # (20 to 10) stays outside
            if comp != self.expect_nodes:
                errors.append("component of 1 is %s, want %s" % (sorted(comp), sorted(self.expect_nodes)))
        return failures, errors


def _certificate_errors(cert, cand):
    """The claims a verified certificate makes, recomputed from definitions;
    g(h) is the family dimension from the candidate list."""
    from reference import generic_hvector, is_additive, is_squarefree

    out = []
    d, e, gdim = cand.d, cand.e, cand.gdim
    if (cert.h.entries, cert.d, cert.e, cert.p) != (cand.h.entries, d, e, P):
        out.append("header (h, d, e, p) differs from the candidate")
    if (cert.hom_SG, cert.hom_IX, cert.hom_IY) != (gdim, gdim - 3 * d, gdim - 3 * e):
        out.append(
            "dims hom_SG=%s hom_IX=%s hom_IY=%s, want g(h)=%d, g-3d=%d, g-3e=%d"
            % (cert.hom_SG, cert.hom_IX, cert.hom_IY, gdim, gdim - 3 * d, gdim - 3 * e)
        )
    if tuple(cert.h_x) != generic_hvector(d) or tuple(cert.h_y) != generic_hvector(e):
        out.append("h_X=%r h_Y=%r are not the generic h-vectors" % (cert.h_x, cert.h_y))
    if not is_additive(cert.h.entries, tuple(cert.h_x), tuple(cert.h_y)):
        out.append("h_X plus shifted reverse h_Y is not h")
    factor = list(cert.witness.factor.coeffs)
    if len(factor) - 1 != d or factor[-1] % P != 1 or not is_squarefree(factor, P):
        out.append("stored factor is not a monic square-free polynomial of degree d")
    return out


# Fixture certificates whose fields the negative control corrupts; each
# corruption changes one claim, and replay must reject the result.
NEGATIVE_BASE = "edge_9_4_"


def _bump_last(csv):
    parts = csv.split(",")
    parts[-1] = str(int(parts[-1]) + 1)
    return ",".join(parts)


def _bump_first_coefficient(expr):
    head, _, rest = expr.partition("*")
    return "%d*%s" % ((int(head) + 1) % P, rest)


CORRUPTIONS = [
    ("h", lambda v: _bump_last(v)),
    ("d", lambda v: str(int(v) + 1)),
    ("e", lambda v: str(int(v) + 1)),
    ("p", lambda v: "10009"),
    ("m[0][1]", _bump_first_coefficient),
    ("ell", _bump_first_coefficient),
    ("xh", _bump_first_coefficient),
    ("factor", lambda v: ",".join([str((int(v.split(",")[0]) + 1) % P)] + v.split(",")[1:])),
    ("dims:hom_IX", lambda v: v.replace("hom_IX=", "hom_IX=1")),
    ("dims:hom_IY", lambda v: v.replace("hom_IY=", "hom_IY=1")),
    ("dims:hom_SG", lambda v: v.replace("hom_SG=", "hom_SG=1")),
    ("dims:gdim", lambda v: v.replace("gdim=", "gdim=1")),
    ("h_x", lambda v: _bump_last(v)),
    ("h_y", lambda v: _bump_last(v)),
    ("tests", lambda v: v.replace("generic_hf_X=1", "generic_hf_X=0")),
    ("verdict", lambda v: "refuted"),
]


def corrupt(text, field):
    """The certificate text with one field changed by CORRUPTIONS."""
    key = field.split(":")[0]
    fn = dict(CORRUPTIONS)[field]
    lines = text.splitlines()
    for i, line in enumerate(lines):
        name, sep, value = line.partition(": ")
        if sep and name == key:
            lines[i] = "%s: %s" % (name, fn(value))
            break
    else:
        raise KeyError(field)
    out = "\n".join(lines) + "\n"
    if out == text:
        raise ValueError("corrupting %s left the certificate unchanged" % field)
    return out


class ReplayStore(Workload):
    """load_certificates + replay_certificate on each + build_graph(replay=True),
    then the negative control: replays of certificates with one corrupted field."""

    name = "replay_store"

    def __init__(self, *args):
        super().__init__(*args)
        names = sorted(n for n in os.listdir(self.fixture_dir) if n.endswith(".cert"))
        if self.smoke:
            names = [n for n in names if int(n.split("_")[1]) <= 9]
        self.store_dir = os.path.join(self.scratch, "replay-store")
        os.makedirs(self.store_dir, exist_ok=True)
        for n in names:
            shutil.copy(os.path.join(self.fixture_dir, n), self.store_dir)
        base = [n for n in names if n.startswith(NEGATIVE_BASE)][0]
        with open(os.path.join(self.fixture_dir, base)) as fh:
            text = fh.read()
        self.negative = [(field, corrupt(text, field)) for field, _ in CORRUPTIONS]
        self.order = random.Random(self.seed).sample(range(len(names)), len(names))
        self.cand = {(c.h.entries, c.d): c for c in self.cands}

    def run_round(self, r, op):
        tangent, store, graph = self.m["tangent"], self.m["store"], self.m["graph"]
        certs, errors = store.load_certificates(self.store_dir)
        replays = []
        for i in self.order:
            replays.append((certs[i], op("replay", lambda c=certs[i]: tangent.replay_certificate(c))))
        g, report = graph.build_graph(self.store_dir, replay=True)
        comp = graph.glicci_component(g)
        negative = []
        for field, text in self.negative:

            def parse_and_replay(text=text):
                # any error while parsing or replaying is a rejection
                try:
                    cert = store.parse_certificate(text)
                except Exception as exc:
                    return "unparsed: %s" % type(exc).__name__
                try:
                    ok, _, _ = tangent.replay_certificate(cert)
                except Exception as exc:
                    return "replay raised %s" % type(exc).__name__
                return "accepted" if ok else "rejected"

            negative.append((field, op("control", parse_and_replay)))
        self.rounds.append((errors, replays, g, report, comp, negative))

    def check(self):
        from reference import component_of_one

        failures, errors = [], []
        for load_errors, replays, g, report, comp, negative in self.rounds:
            if load_errors:
                errors.append("unparsed fixture files: %r" % load_errors)
            for cert, (ok, _, dims) in replays:
                label = "%s d=%d" % (cert.h.csv(), cert.d)
                if not ok:
                    failures.append((label, "replay mismatch"))
                    continue
                cand = self.cand[(cert.h.entries, cert.d)]
                g_h = cand.gdim
                if dims != (g_h - 3 * cand.d, g_h - 3 * cand.e, g_h):
                    errors.append("%s: replayed dims %r, want (g-3d, g-3e, g)" % (label, dims))
                errors += ["%s: %s" % (label, e) for e in _certificate_errors(cert, cand)]
            if report:
                errors.append("graph report: %r" % report)
            expect_edges = {(max(c.d, c.e), min(c.d, c.e), c.h.csv()) for c, _ in replays}
            if set(g.edges) != expect_edges:
                errors.append("replayed graph edges differ from the fixture")
            if comp != component_of_one((a, b) for a, b, _ in expect_edges) & set(g.nodes):
                errors.append("glicci component differs from a breadth-first search")
            for field, outcome in negative:
                if outcome == "accepted":
                    failures.append(
                        ("corrupted %s" % field, "replay accepted it: replay does not re-check this field")
                    )
        return failures, errors


class MonteCarlo(Workload):
    """Batches of montecarlo_split_fraction(30, 20, q, T, seed) at q = 10007
    and q = 2^31 - 1, plus exact A(30, 20, q) and limit evaluations."""

    name = "montecarlo"

    def __init__(self, *args):
        super().__init__(*args)
        self.trials = 20 if self.smoke else 100
        self.plan = [P] if self.smoke else [P, P, P]
        self.plan.append(BIG_Q)

    def run_round(self, r, op):
        ss = self.m["splitstats"]
        batches = []
        for j, q in enumerate(self.plan):
            seed = self.seed * 1000 + len(self.plan) * r + j
            count, _ = op("batch", lambda q=q, seed=seed: ss.montecarlo_split_fraction(MC_N, MC_K, q, self.trials, seed))
            batches.append((q, seed, count))
        poly, a_p = op("exact", self._exact_fraction)
        lim_20 = op("exact", lambda: ss.limit_fraction(MC_N, MC_K))
        lim_1 = op("exact", lambda: ss.limit_fraction(MC_N, 1))
        self.rounds.append((batches, poly, a_p, lim_20, lim_1))

    def _exact_fraction(self):
        poly = self.m["splitstats"].count_squarefree_with_factor(MC_N, MC_K)
        return poly, poly.evaluate(P) / Fraction(P) ** MC_N

    def _batch_fault(self, q, seed, count, poly, exhaustive):
        """Why a batch count is wrong, or None.  The first batch at each q is
        compared draw by draw with the sympy reference (stopping once the
        reference count passes the program's); every batch must lie within
        5 sigma of trials * A(30, 20, q)/q^30."""
        from reference import binomial_ok, montecarlo_draw, splits

        reason = None
        if exhaustive:
            ref = 0
            for i in range(self.trials):
                ref += splits(montecarlo_draw(MC_N, MC_K, q, seed, i), q, MC_K)
                if ref > count:
                    break
            if ref != count:
                reason = "count %d, sympy reference on the same draws %s%d" % (
                    count, ">= " if ref > count else "", ref)
        prob = float(poly.evaluate(q) / Fraction(q) ** MC_N)
        if reason is None and not binomial_ok(count, self.trials, prob):
            reason = "count %d/%d outside 5 sigma of A(30,20,q)/q^30 = %.6f" % (count, self.trials, prob)
        if reason is not None and (q - 1) ** 2 * MC_N >= 2**63:
            reason += "; _FastSplitTester multiplies residues in int64 without blocking and overflows at this q"
        return reason

    def check(self):
        import math

        from reference import brute_force_counts

        failures, errors = [], []
        verdicts = {}  # (q, seed) -> reason the batch failed, or None
        for batches, poly, a_p, lim_20, lim_1 in self.rounds:
            for q, seed, count in batches:
                if (q, seed) not in verdicts:
                    first_at_q = all(k[0] != q for k in verdicts)
                    verdicts[(q, seed)] = self._batch_fault(q, seed, count, poly, first_at_q)
                reason = verdicts[(q, seed)]
                if reason is not None:
                    failures.append(("batch q=%d seed=%d" % (q, seed), reason))
            if round(float(a_p), 6) != 0.385426:
                errors.append("A(30,20,10007)/q^30 = %.8f, want 0.385426" % float(a_p))
            if round(float(lim_20), 6) != 0.385481:
                errors.append("p(30,20) = %.8f, want 0.385481" % float(lim_20))
            if abs(float(lim_1) - (1 - math.exp(-1))) > 1e-6:
                errors.append("p(30,1) = %.8f, want about 1 - 1/e" % float(lim_1))
        ss = self.m["splitstats"]
        for q, n_max in ((2, 6), (3, 4) if self.smoke else (3, 5)):
            for n in range(1, n_max + 1):
                brute = brute_force_counts(n, q)
                exact = [ss.count_squarefree_with_factor(n, k).evaluate(q) for k in range(n + 1)]
                if exact != brute:
                    errors.append("A(%d,k,%d) = %r, brute force %r" % (n, q, exact, brute))
        return failures, errors


WORKLOADS = {w.name: w for w in (DeskSearch, ReplayStore, MonteCarlo)}
