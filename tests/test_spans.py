"""Every entry point the benchmark's tracer wraps by name exists in gorlink,
so that a change which removes or renames one fails here and not only in a
traced benchmark run."""

import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spanned():
    # run from its source, so that no bytecode cache lands next to it
    namespace = {"__name__": "perfbench_spans"}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), namespace)
    return namespace["SPANNED"]


def test_spanned_entry_points_resolve():
    missing = [
        (modname, attr)
        for modname, attr, _ in _spanned()
        if not callable(getattr(importlib.import_module("gorlink." + modname), attr, None))
    ]
    assert missing == []
    # wrapped on their classes rather than listed
    from gorlink.groebner import GradedSpaces
    from gorlink.rng import SplitStream

    assert callable(GradedSpaces.piece) and callable(SplitStream.below)
