"""Spans recorded from outside the program, around each layer's public calls.

The tracer replaces a function with a wrapper in its defining module and in
every other ``gorlink`` module that imported it by name (``from .gf import
rref`` binds a second reference that patching ``gf.rref`` alone would miss),
and wraps methods on their class.  Spans stay in memory as
``[name, start, end, parent, op]`` lists and are written out once, at the end
of the run.  A layer's self time is its span's duration minus the time its
direct child spans cover; calls run on one thread, so children never overlap.
"""

import functools
import json
import os
import sys
import time
from collections import defaultdict

# (module, function, span name).  GradedSpaces.piece and SplitStream.below
# are wrapped on their classes in Tracer.install.
SPANNED = [
    ("gf", "rref", "gf.rref"),
    ("gf", "reduce_rows", "gf.reduce_rows"),
    ("gf", "kernel_basis_array", "gf.kernel_basis_array"),
    ("gf", "charpoly_mod_p", "gf.charpoly_mod_p"),
    ("unipoly", "is_squarefree", "unipoly.is_squarefree"),
    ("unipoly", "find_factor_of_degree", "unipoly.find_factor_of_degree"),
    ("splitstats", "montecarlo_split_fraction", "splitstats.montecarlo_split_fraction"),
    ("splitstats", "count_squarefree_with_factor", "splitstats.count_squarefree_with_factor"),
    ("splitstats", "limit_fraction", "splitstats.limit_fraction"),
    ("gorenstein", "submaximal_pfaffians", "gorenstein.submaximal_pfaffians"),
    ("groebner", "groebner", "groebner.groebner"),
    ("groebner", "h_vector", "groebner.h_vector"),
    ("gorenstein", "random_gorenstein", "gorenstein.random_gorenstein"),
    ("gorenstein", "is_reduced_and_split", "gorenstein.is_reduced_and_split"),
    ("gorenstein", "extract_subscheme", "gorenstein.extract_subscheme"),
    ("gorenstein", "residual", "gorenstein.residual"),
    ("gorenstein", "point_ideal_quotient", "gorenstein.point_ideal_quotient"),
    ("tangent", "hom_dim_zero", "tangent.hom_dim_zero"),
    ("tangent", "replay_certificate", "tangent.replay_certificate"),
    ("store", "save_certificate", "store.save_certificate"),
    ("store", "load_certificates", "store.load_certificates"),
    ("graph", "build_graph", "graph.build_graph"),
    ("hvectors", "enumerate_candidates", "hvectors.enumerate_candidates"),
]

# Every per-layer metric.  "x.calls" and "x.builds" count spans named x, "x.s"
# sums their self time; the rest are counts or are filled in by Tracer.metrics
# and the traced run.
PER_LAYER = [
    ("gf.rref.calls", "count", "lower"),
    ("gf.rref.s", "s", "lower"),
    ("gf.reduce_rows.s", "s", "lower"),
    ("gf.kernel_basis_array.s", "s", "lower"),
    ("gf.charpoly_mod_p.s", "s", "lower"),
    ("unipoly.is_squarefree.s", "s", "lower"),
    ("unipoly.find_factor_of_degree.calls", "count", "lower"),
    ("unipoly.find_factor_of_degree.s", "s", "lower"),
    ("splitstats.montecarlo_split_fraction.s", "s", "lower"),
    ("splitstats.trials", "count", "higher"),
    ("splitstats.count_squarefree_with_factor.s", "s", "lower"),
    ("splitstats.limit_fraction.s", "s", "lower"),
    ("rng.below.calls", "count", "lower"),
    ("gorenstein.submaximal_pfaffians.calls", "count", "lower"),
    ("gorenstein.submaximal_pfaffians.s", "s", "lower"),
    ("groebner.groebner.calls", "count", "lower"),
    ("groebner.groebner.s", "s", "lower"),
    ("groebner.GradedSpaces.piece.builds", "count", "lower"),
    ("groebner.GradedSpaces.piece.s", "s", "lower"),
    ("groebner.h_vector.s", "s", "lower"),
    ("gorenstein.random_gorenstein.calls", "count", "lower"),
    ("gorenstein.random_gorenstein.s", "s", "lower"),
    ("gorenstein.is_reduced_and_split.calls", "count", "lower"),
    ("gorenstein.is_reduced_and_split.s", "s", "lower"),
    ("gorenstein.split_rate", "ratio", "higher"),
    ("gorenstein.split_rate_predicted", "ratio", "higher"),
    ("gorenstein.extract_subscheme.s", "s", "lower"),
    ("gorenstein.residual.s", "s", "lower"),
    ("gorenstein.point_ideal_quotient.s", "s", "lower"),
    ("tangent.attempts", "count", "lower"),
    ("tangent.hom_dim_zero.calls", "count", "lower"),
    ("tangent.hom_dim_zero.s", "s", "lower"),
    ("tangent.replay_certificate.s", "s", "lower"),
    ("store.save_certificate.s", "s", "lower"),
    ("store.bytes", "bytes", "lower"),
    ("store.load_certificates.s", "s", "lower"),
    ("graph.build_graph.s", "s", "lower"),
    ("hvectors.enumerate_candidates.s", "s", "lower"),
    ("trace.unaccounted_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# Called once per traced run (the set-up step), so not divided by rounds.
ONCE = {"hvectors.enumerate_candidates.s"}
# Counted by the wrappers and the workloads rather than derived from spans;
# they read 0 on a workload that never moves them.
COUNTERS = ("rng.below.calls", "splitstats.trials", "store.bytes", "tangent.attempts")


class Tracer:
    """Installs wrappers on the gorlink modules and records spans and counts."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int, dict.fromkeys(COUNTERS, 0))
        self.split_calls = defaultdict(lambda: [0, 0])  # (h csv, d) -> [calls, witnesses]
        self.op = None  # id of the operation that calls made now belong to
        self.op_meta = None  # (h csv, d) of the candidate being verified
        self._stack = []
        self._undo = []

    # -- recording ---------------------------------------------------------

    def begin(self, name):
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def end(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()

    def _spanned(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(rec)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "gorlink" or modname.startswith("gorlink.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def install(self, mods):
        """Wrap the public entry points of every layer in `mods` (name -> module)."""
        after = {
            "splitstats.montecarlo_split_fraction": self._after_montecarlo,
            "gorenstein.is_reduced_and_split": self._after_split,
            "store.save_certificate": self._after_save,
            "store.load_certificates": self._after_load,
        }
        for modname, attr, name in SPANNED:
            original = getattr(mods[modname], attr)
            self._replace_everywhere(original, self._spanned(name, original, after.get(name)))

        spaces = mods["groebner"].GradedSpaces
        piece = spaces.piece

        @functools.wraps(piece)
        def traced_piece(obj, t):
            if t in obj._pieces:
                return piece(obj, t)
            rec = self.begin("groebner.GradedSpaces.piece")
            try:
                return piece(obj, t)
            finally:
                self.end(rec)

        spaces.piece = traced_piece
        self._undo.append((spaces, "piece", piece))

        stream = mods["rng"].SplitStream
        below = stream.below
        counts = self.counts

        @functools.wraps(below)
        def counted_below(obj, n):
            counts["rng.below.calls"] += 1
            return below(obj, n)

        stream.below = counted_below
        self._undo.append((stream, "below", below))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []

    def _after_montecarlo(self, args, kwargs, result):
        trials = args[3] if len(args) > 3 else kwargs["trials"]
        self.counts["splitstats.trials"] += trials

    def _after_split(self, args, kwargs, result):
        entry = self.split_calls[self.op_meta]
        entry[0] += 1
        entry[1] += result is not None

    def _after_save(self, args, kwargs, result):
        self.counts["store.bytes"] += os.path.getsize(result)

    def _after_load(self, args, kwargs, result):
        store_dir = args[0] if args else kwargs["store_dir"]
        for name in os.listdir(store_dir):
            if name.endswith(".cert"):
                self.counts["store.bytes"] += os.path.getsize(os.path.join(store_dir, name))

    # -- analysis ----------------------------------------------------------

    def self_times(self):
        """(calls, self seconds) per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        calls = defaultdict(int)
        seconds = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            seconds[name] += (end - start) - child_time[i]
        return calls, seconds

    def metrics(self, traced_wall, rounds, predicted):
        """Per-layer metrics, per round except those in ONCE.

        traced_wall is the wall time of all traced rounds; predicted maps
        (h csv, d) to the exact split probability A(n, d, q)/q^n.
        """
        calls, seconds = self.self_times()
        out = {}
        for name, _, _ in PER_LAYER:
            base, _, kind = name.rpartition(".")
            if name in self.counts:
                value = self.counts[name]
            elif kind in ("calls", "builds"):
                value = calls.get(base, 0)
            elif kind == "s":
                value = seconds.get(base, 0.0)
            else:
                continue
            out[name] = value if name in ONCE else value / rounds
        covered = sum(v for k, v in seconds.items() if not k.startswith("op."))
        out["trace.unaccounted_s"] = (traced_wall - covered) / rounds
        tried = sum(c for c, _ in self.split_calls.values())
        won = sum(w for _, w in self.split_calls.values())
        expected = sum(float(predicted[key]) * c for key, (c, _) in self.split_calls.items())
        out["gorenstein.split_rate"] = won / tried if tried else 0.0
        out["gorenstein.split_rate_predicted"] = expected / tried if tried else 0.0
        return out

    def write(self, path, meta):
        """One JSON object per line: the run's metadata, then every span."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"meta": meta}) + "\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": name, "start": start, "end": end, "parent": parent, "op": op}
                    )
                    + "\n"
                )
