"""gorlink benchmark: one workload per run, end-to-end or traced per layer.

    python3 perfbench/run.py --workload desk_search --seed 2024 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; the program is imported from ./src.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  See perfbench/README.md.
"""

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
FIXTURE = os.path.join(HERE, "fixture")
OUT = os.path.join(ROOT, ".bench_out")
LAYERS = ["gf", "unipoly", "splitstats", "rng", "mpoly", "groebner", "hvectors",
          "gorenstein", "tangent", "store", "graph"]
SETUP_REPEATS = 61

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
]


def setup():
    """Import every layer afresh, enumerate candidates, locate the fixture."""
    for name in [n for n in sys.modules if n == "gorlink" or n.startswith("gorlink.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module("gorlink." + name) for name in LAYERS}
    cands = mods["hvectors"].enumerate_candidates(6)
    if not os.path.isdir(FIXTURE) or not any(n.endswith(".cert") for n in os.listdir(FIXTURE)):
        raise SystemExit("benchmark fixture missing: %s" % FIXTURE)
    return mods, cands


class Setups:
    """Set-up times, sampled a few at a time between the rounds.

    A set-up takes about 40 ms, and on a shared 2-vCPU virtual machine the
    CPU's speed drifted by up to 1.7x over stretches of seconds, so
    back-to-back samples see one stretch: the median of 9 taken before the
    rounds spread by 11-44 % from run to run.  Spread over the run, their
    median sees the same stretches as wall_s.
    """

    def __init__(self, total):
        self.total = total
        self.times = []
        self.last = None

    def until(self, share):
        """Sample until `share` of the total is taken (at least one); the
        modules and candidates of the last set-up."""
        while not self.times or len(self.times) < round(self.total * share):
            gc.collect()
            t = time.perf_counter()
            self.last = setup()
            self.times.append(time.perf_counter() - t)
        return self.last


def cpu_seconds():
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


class Rounds:
    """Wall and CPU seconds of every operation and of every round."""

    def __init__(self):
        self.ops = []  # per round: [(wall, cpu, kind)] in operation order
        self.rounds = []  # per round: (wall, cpu)

    def attempted(self):
        return sum(len(ops) for ops in self.ops)

    def op_walls(self):
        """Wall seconds of every operation but the negative controls, which
        replay one small certificate and would otherwise set the median."""
        return [w for ops in self.ops for w, _, kind in ops if kind != "control"]

    def solution_time(self, k):
        """Time to solution of one round, robust to a slow stretch of the host:
        the sum over operations of each one's median across rounds, plus the
        median of what the round spends outside its operations (the graph
        step).  k = 0 for wall seconds, 1 for CPU seconds."""
        per_op = [statistics.median(r[i][k] for r in self.ops) for i in range(len(self.ops[0]))]
        rest = statistics.median(
            rnd[k] - sum(op[k] for op in ops) for rnd, ops in zip(self.rounds, self.ops)
        )
        return sum(per_op) + rest


def one_round(workload, r, out, tracer=None):
    """Run round r of `workload`, appending its timings to `out` (a Rounds)."""

    def op(kind, fn):
        rec = None
        if tracer is not None:
            tracer.op = out.attempted()
            rec = tracer.begin("op." + kind)
        c, t = cpu_seconds(), time.perf_counter()
        try:
            return fn()
        finally:
            out.ops[-1].append((time.perf_counter() - t, cpu_seconds() - c, kind))
            if rec is not None:
                tracer.end(rec)
                tracer.op = None

    out.ops.append([])
    c0, w0 = cpu_seconds(), time.perf_counter()
    workload.run_round(r, op)
    out.rounds.append((time.perf_counter() - w0, cpu_seconds() - c0))


def repeat(budget, smoke, body, between=None):
    """Call body(r) for r = 0, 1, ... until the next call would end past
    `budget` seconds of body time; at least once, and exactly once in smoke
    mode.  between(share of the budget spent) runs after each call but the
    last, outside the budget."""
    spent = 0.0
    r = 0
    while True:
        t = time.perf_counter()
        body(r)
        spent += time.perf_counter() - t
        r += 1
        if smoke or spent * (r + 1) / r > budget:
            return r
        if between is not None:
            between(spent / budget)


def peak_rss_mb():
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def metadata():
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_start": list(os.getloadavg()),
    }


def measure(workload, seconds, smoke, setups):
    """Untraced rounds, with set-ups sampled between them: (end-to-end
    metrics, operations, lines)."""
    done = Rounds()
    repeat(seconds, smoke, lambda r: one_round(workload, r, done), setups.until)
    setups.until(1.0)
    metrics = {
        "setup_s": statistics.median(setups.times),
        "wall_s": done.solution_time(0),
        "op_p50_s": statistics.median(done.op_walls()),
        "cpu_s": done.solution_time(1),
        "peak_rss_mb": peak_rss_mb(),
    }
    line = "rounds: %d, round wall s: %s, set-ups: %d" % (
        len(done.rounds), " ".join("%.3f" % w for w, _ in done.rounds), len(setups.times))
    return metrics, done.attempted(), [line]


def measure_traced(workload, mods, seconds, smoke, name, seed):
    """Untraced and traced rounds in turn: (per-layer metrics, operations, lines).

    They alternate so that a change in the host's speed during the run
    touches both sides of the tracing overhead alike."""
    from spans import Tracer
    from workloads import P

    plain, traced = Rounds(), Rounds()
    tracer = Tracer()
    traced_wall = [0.0]

    def pair(r):
        one_round(workload, r, plain)
        tracer.install(mods)
        workload.tracer = tracer
        t = time.perf_counter()
        try:
            if r == 0:
                mods["hvectors"].enumerate_candidates(6)
            one_round(workload, r, traced, tracer)
        finally:
            traced_wall[0] += time.perf_counter() - t
            tracer.uninstall()
            workload.tracer = None

    rounds = repeat(seconds, smoke, pair)
    predicted = {}
    for h_csv, d in workload.split_keys():
        n = sum(int(x) for x in h_csv.split(","))
        predicted[(h_csv, d)] = mods["splitstats"].count_squarefree_with_factor(n, d).evaluate(P) / P**n
    metrics = tracer.metrics(traced_wall[0], rounds, predicted)
    untraced = plain.solution_time(0)
    metrics["trace.overhead_s"] = traced.solution_time(0) - untraced
    lines = [
        "rounds: %d untraced + %d traced, spans: %d" % (rounds, rounds, len(tracer.spans)),
        "tracing overhead: %.4f s on an untraced wall_s of %.4f s" % (metrics["trace.overhead_s"], untraced),
    ]
    for (h_csv, d), (calls, wins) in sorted(
        tracer.split_calls.items(), key=lambda kv: (sum(map(int, kv[0][0].split(","))), kv[0][1])
    ):
        lines.append("split rate h=%s d=%d: %d/%d = %.4f, predicted A(n,d,q)/q^n = %.4f"
                     % (h_csv, d, wins, calls, wins / calls, float(predicted[(h_csv, d)])))
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "trace-%s-%d.jsonl" % (name, seed))
    tracer.write(path, {"workload": name, "seed": seed})
    lines.append("spans written to %s" % os.path.relpath(path, ROOT))
    attempted = plain.attempted() + traced.attempted()
    return metrics, attempted, lines


def run(name, seed, seconds, trace, smoke):
    """Run one workload; returns (result dict, report lines)."""
    from spans import PER_LAYER
    from workloads import WORKLOADS

    setups = Setups(3 if smoke else SETUP_REPEATS)
    mods, cands = setups.until(0.1)
    scratch = os.path.join(OUT, "%s-%d" % (name, os.getpid()))
    os.makedirs(scratch, exist_ok=True)
    try:
        workload = WORKLOADS[name](mods, cands, FIXTURE, seed, smoke, scratch)
        if trace:
            metrics, attempted, lines = measure_traced(workload, mods, seconds, smoke, name, seed)
            units = {n: u for n, u, _ in PER_LAYER}
        else:
            metrics, attempted, lines = measure(workload, seconds, smoke, setups)
            units = dict(END_TO_END)
        failures, errors = workload.check()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines += ["FAILED %s: %s" % failure for failure in failures]
    lines += ["WRONG %s" % err for err in errors]
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=["desk_search", "replay_store", "montecarlo"])
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at toy size, one round each, all checks on")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not os.path.isfile(os.path.join(SRC, "gorlink", "__init__.py")):
        print("error: no gorlink sources under %s; run from a source checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import numpy  # noqa: F401  (imported before setup is timed; setup_s is gorlink's own)

    names = ["desk_search", "replay_store", "montecarlo"] if args.smoke else [args.workload]
    ok = True
    for name in names:
        meta = metadata()
        result, lines = run(name, args.seed, args.seconds, bool(args.trace), args.smoke)
        meta["loadavg_end"] = list(os.getloadavg())
        print("meta: %s" % json.dumps(dict(meta, workload=name, seed=args.seed, trace=args.trace)))
        for line in lines:
            print(line)
        print(json.dumps(result))
        ok &= result["correct"]
    # a measured run reports correctness in its result; smoke mode is a gate
    return 0 if ok or not args.smoke else 1


if __name__ == "__main__":
    sys.exit(main())
