"""Layered benchmark of uta: one workload per run, one op at a time.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

The loop is closed with one client and no think time: the next op starts
when the previous one has returned and its answer has been checked.  Only
op calls are timed; the checks between them are not.  With ``--trace 0``
the run is split over WORKERS processes started one after another, and
the last line of stdout is the JSON result with the end-to-end metrics;
with ``--trace 1`` one process runs each op once untraced and once
traced, and the result holds the per-layer metrics of the traced calls.
Times are given at a reference speed measured with a fixed kernel
(``Speed``).  Lines
before the result are diagnostics: inputs digest, sample counts, failures
by layer, scaling rows.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

from checks import Mismatch, reachable, tree_nodes
from tracer import LAYERS, Tracer
from workloads import WORKLOADS, Op

ROOT = Path(__file__).resolve().parent.parent

LADDER = (90.0, 99.0, 99.9)
# A corpus op is one `uta recognize` over a whole term file; the others are
# single decisions.
DEFAULT_OP_LIMITS = "corpus=5,decide=2,products=2"
# A traced op may take this many times its limit: the tracer's wrappers slow
# the probes' per-tree calls several times over.
TRACED_LIMIT_FACTOR = 10
SETUP_REPEATS = 3
# An untraced run is split over this many processes, run one after another.
# The speed of the same ops, relative to the reference kernel, differs by
# about a tenth from one process to the next; a median over several
# processes evens that out.
WORKERS = 5

clock = time.perf_counter

# A shared host's speed can drift by a quarter between runs, for any code.
# A fixed kernel timed between ops tracks that drift to a few percent, so
# every time is reported at the speed where the kernel takes
# REFERENCE_KERNEL_S.
REFERENCE_KERNEL_S = 0.010


def reference_kernel() -> int:
    """Fixed pure-Python work: frozensets of tuples built, sorted, hashed and
    used as dict keys, as uta does with its carriers and tables.  Work of
    this kind tracks the speed of uta's ops on a shared host more closely
    than plain dict traffic, whose speed swings more with the host's load."""
    seen = set()
    for i in range(3000):
        members = frozenset((i % 13, j) for j in range(i % 7 + 2))
        seen.add(members)
        tuple(sorted(members))
    table = {m: len(m) for m in seen}
    return len(table)


class Speed:
    """Samples of the reference kernel, taken between ops and set-ups."""

    def __init__(self):
        self.samples: list = []

    def sample(self):
        start = clock()
        reference_kernel()
        self.samples.append(clock() - start)

    def due(self, op_time: float) -> bool:
        """Keep the kernel at about 5% of the op time."""
        return not self.samples or sum(self.samples) < 0.05 * op_time

    @property
    def scale(self) -> float:
        """Factor from a time measured here to the reference speed."""
        return REFERENCE_KERNEL_S / statistics.median(self.samples)


class OpTimeout(BaseException):
    """Raised by the interval timer inside an op that ran past its limit.

    A BaseException, so that no ``except Exception`` in the library can
    swallow it.  Interrupting an op is safe: uta values are immutable.
    """


def _alarm(signum, frame):
    raise OpTimeout()


def fresh_import():
    """Import uta from the checkout's sources, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "uta" or n.startswith("uta.")]:
        del sys.modules[name]
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    uta = importlib.import_module("uta")
    importlib.import_module("uta.workspace")
    importlib.import_module("uta.cli")
    return uta


def blame(exc):
    """The innermost uta layer on the exception's traceback, if any."""
    layer = None
    tb = exc.__traceback__
    while tb is not None:
        mod = tb.tb_frame.f_globals.get("__name__", "")
        if mod.startswith("uta.") and mod[4:] in LAYERS:
            layer = mod[4:]
        tb = tb.tb_next
    return layer


def run_op(op, limit: float, tracer=None):
    """(latency_s, result, exception) of one op under the per-op limit."""
    result = error = None
    start = clock()
    try:
        if tracer is not None:
            tracer.begin(op.kind)
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            result = op.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except (Exception, OpTimeout, SystemExit) as e:
        error = e
    latency = clock() - start
    if tracer is not None:
        tracer.end()
    return latency, result, error


def release(error):
    """Free what a failed op left behind before the next op starts: its
    traceback holds the op's frames in a cycle that only the collector
    breaks, and the next op's peak memory would otherwise include it."""
    if error is not None:
        traceback.clear_frames(error.__traceback__)
        gc.collect()


class Outcome:
    """Latency and verdict of one attempted op."""

    __slots__ = ("op", "latency", "ok", "nodes", "error", "layer", "detail")

    def __init__(self, op, latency, result, error):
        self.op = op
        self.latency = latency
        self.ok = False
        self.nodes = 0
        self.error = self.layer = self.detail = None
        if error is not None:
            self.error = type(error).__name__
            self.layer = blame(error) or op.layer
            self.detail = str(error)[:200]
            return
        try:
            self.nodes = op.check(result)
            self.ok = True
        except Exception as e:  # a malformed answer fails its op, never the run
            self.error = "Mismatch" if isinstance(e, Mismatch) else type(e).__name__
            self.layer = op.layer
            self.detail = str(e)[:200]

    @classmethod
    def restore(cls, op, latency, ok, nodes, error, layer, detail):
        """An outcome as a worker process reported it."""
        o = cls.__new__(cls)
        o.op, o.latency, o.ok, o.nodes, o.error, o.layer, o.detail = op, latency, ok, nodes, error, layer, detail
        return o


def rank(n: int, p: float) -> int:
    """Nearest rank (1-based) of the p-th percentile of n sorted values."""
    return max(math.ceil(p / 100.0 * n - 1e-9), 1)


def quantile(values, p: float) -> float:
    """The Harrell-Davis estimate of the p-th percentile of ``values``: the
    mean of all order statistics, each weighted by the chance that the
    order statistic at p of a sample of the same size falls in its slot (a
    beta distribution).  Where few ops lie around the percentile, the
    nearest rank jumps from one op to its neighbour with the noise of a
    single op; this estimate moves smoothly."""
    v = sorted(values)
    n = len(v)
    a, b = p / 100.0 * (n + 1), (1.0 - p / 100.0) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(x):
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x))

    # Simpson's rule over each slot ((i - 1)/n, i/n).
    steps = 16
    h = 1.0 / (n * steps)
    weights = []
    for i in range(n):
        lo = i / n
        total = density(lo) + density(lo + steps * h)
        total += sum((4 if k % 2 else 2) * density(lo + k * h) for k in range(1, steps))
        weights.append(total)
    return sum(w * x for w, x in zip(weights, v)) / sum(weights)


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least ten samples beyond it."""
    best = 50.0
    for p in LADDER:
        if n - rank(n, p) >= 10:
            best = p
    return best


def per_op(outcomes) -> list:
    """Each attempted op of the population once, as (latency, ok, nodes):
    the median latency of its attempts, whether every attempt succeeded, and
    the nodes its check verified.  Every op weighs the same, whatever share
    of a pass the time allowed, and one slow attempt, a stall of the host,
    moves no percentile."""
    attempts = defaultdict(list)
    for o in outcomes:
        attempts[id(o.op)].append(o)
    rows = []
    for tries in attempts.values():
        ok = all(o.ok for o in tries)
        rows.append((statistics.median(o.latency for o in tries), ok, tries[0].nodes if ok else 0))
    return rows


def summarize(outcomes, limit, scale):
    """End-to-end metrics of a run at the reference speed (measured times
    times ``scale``; ``limit`` is already in reference seconds), plus notes:
    the tail percentile used, the share of ops that failed, and the tree
    nodes the checks verified per second."""
    ops = per_op(outcomes)
    n = len(ops)
    spent = sum(lat for lat, _, _ in ops)
    good = sum(ok for _, ok, _ in ops)
    nodes = sum(nd for _, _, nd in ops)
    tail_p = tail_percentile(n)
    notes = {"ops": n, "tail_percentile": tail_p, "beyond_tail": n - rank(n, tail_p),
             "failed_share": (n - good) / n, "nodes_per_s": nodes / (spent * scale)}
    # A failed op counts as the slowest an op can be, the per-op limit, so
    # failing faster never improves a percentile.  When the nearest rank of
    # a percentile is a failed op, say so.
    lat = sorted(lt if ok else limit / scale for lt, ok, _ in ops)
    failed_from = good
    for name, p in (("p50", 50.0), ("tail", tail_p)):
        if rank(n, p) > failed_from:
            notes[f"{name}_on_failure"] = True
    p50 = quantile(lat, 50.0) * scale
    tail = quantile(lat, tail_p) * scale
    return {
        "ops_per_s": (good / (spent * scale), "1/s"),
        "latency_p50_ms": (p50 * 1000.0, "ms"),
        "latency_tail_ms": (tail * 1000.0, "ms"),
    }, notes


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def scaling_rows(outcomes, extra=None):
    """Per size class: samples, median latency, failures (and counts)."""
    by = defaultdict(list)
    for o in outcomes:
        by[o.op.size].append(o)
    rows = []
    for size in sorted(by):
        os_ = by[size]
        lat = sorted(o.latency if o.ok else math.inf for o in os_)
        med = lat[(len(lat) - 1) // 2]
        row = {
            "size": size,
            "samples": len(os_),
            "p50_ms": None if math.isinf(med) else round(med * 1000.0, 3),
            "failed": sum(not o.ok for o in os_),
        }
        if extra:
            row.update(extra(size))
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# per-layer metrics

# name -> (unit, source, functions or counter).  "self" sums self time,
# "total" the time of outermost calls including callees, "calls" counts
# calls, "count" reads a counter taken at the call boundary.
LAYER_METRICS = {
    "trees.parse_s": ("s/op", "self", ["trees.parse_term"]),
    "trees.render_s": ("s/op", "self", ["trees.render", "trees.pretty"]),
    "trees.validate_s": ("s/op", "self", ["trees.validate_tree"]),
    "trees.nodes_parsed": ("count/op", "count", "trees.nodes_parsed"),
    "trees.enumerate_s": ("s/op", "self", ["trees.enumerate_trees", "trees.enumerate_contexts"]),
    "trees.trees_enumerated": ("count/op", "count", "trees.enumerated"),
    "trees.abstraction_key_s": ("s/op", "self", [
        "trees.abstraction_key", "trees.root_segment", "trees.bounded_subtrees",
        "trees.forks", "trees.pieces", "trees.embeds", "trees.subtrees"]),
    "horizon.run_word_s": ("s/op", "self", ["horizon.run_word"]),
    "horizon.run_word_calls": ("count/op", "calls", ["horizon.run_word"]),
    "horizon.transition_monoid_s": ("s/op", "self", ["horizon.transition_monoid"]),
    "horizon.monoid_size": ("count/op", "count", "horizon.monoid_size"),
    "horizon.minimize_s": ("s/op", "self", ["horizon.minimize_moore"]),
    "horizon.product_machine_s": ("s/op", "self", [
        "horizon.tuple_product_machine", "horizon.pair_machine", "horizon.product_machine"]),
    "horizon.product_states": ("count/op", "count", "horizon.product_states"),
    "horizon.machine_build_s": ("s/op", "self", ["horizon.MooreMachine"]),
    "horizon.machines_built": ("count/op", "calls", ["horizon.MooreMachine"]),
    "algebra.eval_s": ("s/op", "self", ["algebra.eval_term", "algebra.eval_g", "algebra.apply_symbol"]),
    "algebra.translations_s": ("s/op", "self", ["algebra.translations", "algebra.elementary_translations"]),
    "algebra.translation_count": ("count/op", "count", "algebra.translation_count"),
    "algebra.quotient_s": ("s/op", "self", ["algebra.quotient_algebra", "algebra.g_quotient"]),
    "algebra.g_product_s": ("s/op", "self", ["algebra.g_product"]),
    "algebra.product_elements": ("count/op", "count", "algebra.product_elements"),
    "algebra.product_reachable_share": ("ratio", "share", ("algebra.reachable", "algebra.product_carrier")),
    "algebra.closure_s": ("s/op", "self", ["algebra.generated_closure"]),
    "syntactic.congruence_s": ("s/op", "self", ["syntactic.syntactic_congruence"]),
    "syntactic.classes": ("count/op", "count", "syntactic.classes"),
    "recognizer.trim_s": ("s/op", "total", ["recognizer.trim"]),
    "recognizer.is_empty_s": ("s/op", "total", ["recognizer.is_empty"]),
    "recognizer.min_member_s": ("s/op", "total", ["recognizer.min_member"]),
    "recognizer.is_finite_s": ("s/op", "total", ["recognizer.is_finite"]),
    "recognizer.finite_size_probes": ("count/call", "per_call", ("recognizer.finite_size_probes", "recognizer.is_finite")),
    "recognizer.equivalent_s": ("s/op", "total", ["recognizer.equivalent"]),
    "varieties.definite_s": ("s/op", "total", ["varieties.decide_definite"]),
    "varieties.aperiodic_s": ("s/op", "total", ["varieties.decide_aperiodic"]),
    "varieties.probe_s": ("s/op", "total", ["varieties.saturation_probe"]),
    "varieties.nilpotent_build_s": ("s/op", "total", ["varieties.nilpotent_recognizer_for_finite"]),
    "varieties.nilpotent_carrier": ("count/op", "count", "varieties.nilpotent_carrier"),
    "workspace.load_s": ("s/op", "total", ["workspace.load_workspace"]),
    "cli.main_s": ("s/op", "total", ["cli.main"]),
}
for _layer in LAYERS:
    LAYER_METRICS[f"{_layer}.errors"] = ("count", "errors", _layer)


def trace_hooks():
    """Counters taken where the traced functions return."""

    def count(key, size):
        def hook(tracer, result):
            tracer.counts[key] += size(result)

        return hook

    def defer(kind):
        def hook(tracer, result):
            tracer.deferred.append((kind, result))

        return hook

    def probe(tracer, result):
        if tracer.depth("recognizer.is_finite"):
            tracer.counts["recognizer.finite_size_probes"] += 1

    return {
        "trees.parse_term": defer("nodes"),
        "horizon.transition_monoid": count("horizon.monoid_size", len),
        "horizon.tuple_product_machine": count("horizon.product_states", lambda m: len(m.states)),
        "algebra.translations": count("algebra.translation_count", lambda tm: len(tm.members)),
        "algebra.g_product": count("algebra.product_elements", lambda a: len(a.elements)),
        "recognizer.intersect": defer("product"),
        "recognizer.union": defer("product"),
        "recognizer.size_at_least_recognizer": probe,
        "syntactic.syntactic_congruence": count("syntactic.classes", lambda p: p.block_count),
        "varieties.nilpotent_recognizer_for_finite": count(
            "varieties.nilpotent_carrier", lambda r: len(r.algebra.elements)),
    }


def settle_deferred(tracer):
    """Counts that need a walk over a result, taken after the op's clock."""
    for kind, obj in tracer.deferred:
        if kind == "nodes":
            tracer.counts["trees.nodes_parsed"] += tree_nodes(obj)
        elif kind == "product":
            tracer.counts["algebra.reachable"] += len(reachable(obj))
            tracer.counts["algebra.product_carrier"] += len(obj.algebra.elements)
    tracer.deferred.clear()
    tracer.counts["trees.enumerated"] = (
        tracer.counts["trees.enumerate_trees.items"] + tracer.counts["trees.enumerate_contexts.items"]
    )


def layer_metrics(tracer, outcomes, scale) -> dict:
    """Per-layer metrics of a traced run; times at the reference speed."""
    n = max(len(outcomes), 1)
    errors = Counter(o.layer for o in outcomes if not o.ok)
    out = {}
    for name, (unit, source, what) in LAYER_METRICS.items():
        if source == "self":
            value = sum(tracer.stats[f][0] for f in what if f in tracer.stats) * scale / n
        elif source == "total":
            value = sum(tracer.stats[f][1] for f in what if f in tracer.stats) * scale / n
        elif source == "calls":
            value = sum(tracer.stats[f][2] for f in what if f in tracer.stats) / n
        elif source == "count":
            value = tracer.counts.get(what, 0.0) / n
        elif source == "share":
            num, den = (tracer.counts.get(k, 0.0) for k in what)
            value = num / den if den else 0.0
        elif source == "per_call":
            calls = tracer.stats[what[1]][2] if what[1] in tracer.stats else 0
            value = tracer.counts.get(what[0], 0.0) / calls if calls else 0.0
        else:
            value = float(errors.get(what, 0))
        out[name] = (value, unit)
    return out


# ---------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="op time to measure")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--op-limits", default=DEFAULT_OP_LIMITS, type=_limits,
                    help="per-op time limit in reference seconds, by workload: corpus=5,decide=2,...")
    ap.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload not in args.op_limits:
        ap.error(f"--op-limits names no limit for {args.workload}")
    args.op_limit = args.op_limits[args.workload]
    return args


def _limits(text):
    limits = {}
    for part in text.split(","):
        name, _, value = part.partition("=")
        limits[name.strip()] = float(value)
    return limits


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parse_args(argv)
    if not (ROOT / "src" / "uta" / "__init__.py").is_file():
        print(f"error: no uta sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.trace == 0 and args.worker is None:
        return run_workers(args, argv)
    signal.signal(signal.SIGALRM, _alarm)
    work_root = ROOT / ".perfbench-work"
    workdir = work_root / f"{args.workload}-{os.getpid()}"
    try:
        speed = Speed()
        population, setups = set_up(args, workdir, speed)
        if args.worker is None:
            return traced_run(args, population, speed)
        return worker_run(args, population, setups, speed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if work_root.is_dir() and not any(work_root.iterdir()):
            work_root.rmdir()


def set_up(args, workdir, speed):
    """The population of the last of SETUP_REPEATS set-ups, and the time of
    each in measured seconds."""
    setups = []
    population = None
    for _ in range(SETUP_REPEATS):
        # Each set-up starts from the same heap: the previous inputs freed
        # and collected, so no set-up pays for another's garbage.
        population = None
        gc.collect()
        speed.sample()
        start = clock()
        uta = fresh_import()
        population = WORKLOADS[args.workload](uta, args.seed, ROOT, workdir)
        setups.append(clock() - start)
    # The inputs live as long as the run: keep the collector from rescanning
    # them during every op, which would time the benchmark's own data rather
    # than the program.
    gc.collect()
    gc.freeze()
    return population, setups


def op_loop(args, ops, speed, seconds, first=0, tracer=None):
    """Cycle through ``ops`` from index ``first`` until ``seconds`` of op
    time are spent.  With a tracer each op runs once untraced and once
    traced, and the traced run gives the outcome.  Returns the outcomes, the
    untraced and traced op time, and (size, translations, product elements)
    per traced op."""
    outcomes, untraced_s, traced_s, op_counts = [], 0.0, 0.0, []
    hooks = trace_hooks() if tracer is not None else None
    i = first
    while untraced_s + traced_s < seconds:
        if speed.due(untraced_s + traced_s):
            speed.sample()
        # The limit is in reference seconds: a slow phase of the host gets
        # as much wall time as the same work needs there.
        limit = args.op_limit / speed.scale
        op = ops[i % len(ops)]
        i += 1
        latency, result, error = run_op(op, limit)
        untraced_s += latency
        if tracer is not None:
            result = None
            release(error)
            before = (tracer.counts["algebra.translation_count"], tracer.counts["algebra.product_elements"])
            tracer.install(hooks)
            try:
                latency, result, error = run_op(op, limit * TRACED_LIMIT_FACTOR, tracer)
            finally:
                tracer.uninstall()
            traced_s += latency
            settle_deferred(tracer)
            op_counts.append((op.size, tracer.counts["algebra.translation_count"] - before[0],
                              tracer.counts["algebra.product_elements"] - before[1]))
        outcomes.append(Outcome(op, latency, result, error))
        result = None
        release(error)
    return outcomes, untraced_s, traced_s, op_counts


def worker_run(args, population, setups, speed) -> int:
    """One process's share of an untraced run, printed as one JSON line of
    raw results in measured seconds."""
    ops = population.ops
    index = {id(op): k for k, op in enumerate(ops)}
    outcomes, _, _, _ = op_loop(args, ops, speed, args.seconds / WORKERS, args.worker * len(ops) // WORKERS)
    print(json.dumps({
        "digest": population.digest,
        "notes": population.notes,
        "ops": [[op.kind, op.layer, op.size] for op in ops],
        "kernel_s": statistics.median(speed.samples),
        "kernel_samples": len(speed.samples),
        "setups": setups,
        "peak_rss_mb": peak_rss_mb(),
        "runs": [[index[id(o.op)], o.latency, o.ok, o.nodes, o.error, o.layer, o.detail]
                 for o in outcomes],
    }))
    return 0


def run_workers(args, argv) -> int:
    """An untraced run: WORKERS processes, one after another, each measuring
    its share of ``--seconds`` from its own place in the pass.  Times are
    taken to the reference speed by each process's kernel and then to the
    median process's speed (``process_factors``); each op's latency is the
    median of its runs across the processes."""
    # A terminated run still stops and waits for its worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    reports = []
    for w in range(WORKERS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), *argv, "--worker", str(w)],
            capture_output=True, text=True, timeout=max(30.0, 3.0 * args.seconds / WORKERS),
        )
        if proc.returncode != 0:
            print(f"error: worker {w} exited with code {proc.returncode}:\n{proc.stderr}", file=sys.stderr)
            return proc.returncode if proc.returncode > 0 else 1
        reports.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    digests = {r["digest"] for r in reports}
    if len(digests) != 1:
        print(f"error: workers generated different inputs: {sorted(digests)}", file=sys.stderr)
        return 1
    ops = [Op(kind, layer, size, None, None) for kind, layer, size in reports[0]["ops"]]
    factors = process_factors(reports)
    scales = [REFERENCE_KERNEL_S / r["kernel_s"] / f for r, f in zip(reports, factors)]
    outcomes = [Outcome.restore(ops[row[0]], row[1] * sc, *row[2:]) for r, sc in zip(reports, scales) for row in r["runs"]]
    setups = [t * sc for r, sc in zip(reports, scales) for t in r["setups"]]

    print(f"# workload {args.workload} seed {args.seed}: inputs {reports[0]['digest']}; "
          + "; ".join(reports[0]["notes"]))
    print(f"# closed loop, 1 client, per-op limit {args.op_limit} s, {args.seconds} s of op time "
          f"in {WORKERS} processes run one after another")
    report_failures(outcomes, args.op_limit, 1.0)
    print("# reference speed: per process, kernel median "
          + ", ".join(f"{r['kernel_s'] * 1000:.3f} ms over {r['kernel_samples']} samples" for r in reports)
          + "; speed relative to the median process " + ", ".join(f"{f:.3f}" for f in factors)
          + f"; times below are at a {REFERENCE_KERNEL_S * 1000:g} ms kernel and the median process's speed")
    metrics, notes = summarize(outcomes, args.op_limit, 1.0)
    metrics["setup_s"] = (statistics.median(setups), "s")
    # Each worker runs part of the pass; the highest peak is that of a
    # worker that ran the op needing the most memory.
    metrics["peak_rss_mb"] = (max(r["peak_rss_mb"] for r in reports), "MB")
    n = f"{notes['ops']} ops, {len(outcomes)} runs"
    samples = {"setup_s": f"{len(setups)} set-ups", "peak_rss_mb": f"{WORKERS} processes"}
    print(f"# {'metric':<16} {'value':>14} {'unit':<6} samples")
    for name, (value, unit) in metrics.items():
        print(f"# {name:<16} {value:>14.6g} {unit:<6} {samples.get(name, n)}")
    print(f"# each op's latency is the median of its runs; latency_tail_ms is "
          f"p{notes['tail_percentile']:g} ({notes['beyond_tail']} ops beyond it)"
          + "".join(f"; {k} falls on a failed op, the per-op limit is printed"
                    for k in ("p50", "tail") if notes.get(f"{k}_on_failure")))
    print(f"# failed_share {notes['failed_share']:g} of ops; nodes_per_s {notes['nodes_per_s']:.6g} 1/s "
          f"({n}): tree nodes the checks verified, per second of op time: the documents on corpus, "
          "the witnesses and member lists elsewhere")
    print("# scaling rows (untraced, reference times):")
    for row in scaling_rows(outcomes):
        print("#   " + json.dumps(row))
    return result_line(outcomes, metrics)


def process_factors(reports) -> list:
    """How much slower each worker ran the ops it shared with the others,
    relative to the median worker, at the reference speed.

    All ops of one process run faster or slower together, by about a tenth
    from one process to the next, and the reference kernel does not follow
    that: it is a property of the process, not of the host's load.  A
    worker's factor is the median, over its successful runs of ops
    that other workers ran too, of its time over the op's median time in
    all workers."""
    scales = [REFERENCE_KERNEL_S / r["kernel_s"] for r in reports]
    times = defaultdict(list)
    for r, sc in zip(reports, scales):
        for op, latency, ok, *_ in r["runs"]:
            if ok:
                times[op].append(latency * sc)
    level = {op: statistics.median(ts) for op, ts in times.items() if len(ts) > 1}
    factors = []
    for r, sc in zip(reports, scales):
        ratios = [latency * sc / level[op] for op, latency, ok, *_ in r["runs"] if ok and op in level]
        factors.append(statistics.median(ratios) if ratios else 1.0)
    mid = statistics.median(factors)
    return [f / mid for f in factors]


def traced_run(args, population, speed) -> int:
    print(f"# workload {args.workload} seed {args.seed}: inputs {population.digest}; "
          + "; ".join(population.notes))
    print(f"# closed loop, 1 client, per-op limit {args.op_limit} s, {args.seconds} s of op time")
    tracer = Tracer()
    outcomes, untraced_s, traced_s, op_counts = op_loop(args, population.ops, speed, args.seconds, 0, tracer)
    scale = speed.scale
    report_failures(outcomes, args.op_limit * TRACED_LIMIT_FACTOR, scale)
    print(f"# reference speed: kernel median {statistics.median(speed.samples) * 1000:.3f} ms over "
          f"{len(speed.samples)} samples; times below are scaled by {scale:.4f} to a "
          f"{REFERENCE_KERNEL_S * 1000:g} ms kernel")
    metrics = layer_metrics(tracer, outcomes, scale)
    overhead = traced_s / untraced_s - 1.0 if untraced_s else 0.0
    print(f"# traced {len(outcomes)} ops; the same ops untraced took {untraced_s:.4f} s, "
          f"traced {traced_s:.4f} s: tracing overhead {overhead:+.1%}")
    print(f"# spans logged {len(tracer.spans)}, dropped {tracer.spans_dropped}; "
          "no layer queues work, so no waiting time is reported")
    for name, (value, unit) in metrics.items():
        print(f"# {name:<34} {value:>14.6g} {unit}")
    top = sorted(tracer.stats.items(), key=lambda kv: -kv[1][0])[:12]
    print("# top self time: " + ", ".join(f"{k} {v[0]:.4f}s/{v[2]}" for k, v in top))
    per_size = defaultdict(list)
    for size, tc, pe in op_counts:
        per_size[size].append((tc, pe))

    def counts(size):
        vals = per_size[size]
        return {
            "translation_count": statistics.median(v[0] for v in vals),
            "product_elements": statistics.median(v[1] for v in vals),
        }

    print("# scaling rows (traced, measured times):")
    for row in scaling_rows(outcomes, counts):
        print("#   " + json.dumps(row))
    return result_line(outcomes, metrics)


def report_failures(outcomes, op_limit, scale):
    failures = Counter((o.error, o.layer) for o in outcomes if not o.ok)
    print("# failures by (type, layer): "
          + (", ".join(f"{t}/{l}: {c}" for (t, l), c in sorted(failures.items())) or "none"))
    failed_ops = Counter((o.op.kind, o.op.size, o.error) for o in outcomes if not o.ok)
    print("# failed ops: " + (", ".join(f"{k}[{s}] {e} x{c}" for (k, s, e), c in sorted(failed_ops.items())) or "none"))
    for o in outcomes:
        if not o.ok and o.error == "Mismatch":
            print(f"# wrong answer: {o.op.kind} [{o.op.size}]: {o.detail}")
            break
    slowest = max(outcomes, key=lambda o: o.latency)
    print(f"# slowest run: {slowest.op.kind}[{slowest.op.size}] {slowest.latency * scale * 1000:.1f} ms "
          f"of a {op_limit * 1000:g} ms limit")


def result_line(outcomes, metrics) -> int:
    print(json.dumps({
        "correct": all(o.error != "Mismatch" for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(not o.ok for o in outcomes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
