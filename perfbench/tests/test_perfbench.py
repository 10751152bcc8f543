"""Tests of the benchmark itself: checks, the per-op limit, the tracer, and
a short run of each workload.  Run with ``python3 -m pytest perfbench/tests``."""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import checks
import run
import workloads
from tracer import Tracer

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent


@pytest.fixture(scope="module")
def uta():
    return run.fresh_import()


@pytest.fixture
def alarm():
    old = signal.signal(signal.SIGALRM, run._alarm)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, old)


def _op(population, kind, size=None):
    return next(o for o in population.ops if o.kind == kind and (size is None or o.size == size))


def test_checker_flags_a_wrong_verdict(uta, tmp_path):
    pop = workloads.decide(uta, 1, REPO, tmp_path)
    op = _op(pop, "decide.def", "fixture-rootf")
    right = op.run()
    assert op.check(right) == 0
    wrong = type(right)("Def", False, "exact", counterexample=None, detail="depth 1")
    with pytest.raises(checks.Mismatch):
        op.check(wrong)


def test_checker_flags_a_witness_that_does_not_reverify(uta, tmp_path):
    pop = workloads.products(uta, 1, REPO, tmp_path)
    op = _op(pop, "products.equiv", "s=3")
    equal, cex = op.run()
    if equal:
        op = next(o for o in pop.ops if o.kind == "products.equiv" and o.size == "s=3" and o is not op)
        equal, cex = op.run()
    assert op.check((equal, cex)) == checks.tree_nodes(cex)
    other = checks.build_tree(uta, "f(x,x)", ("x",))
    with pytest.raises(checks.Mismatch):
        op.check((equal, other))


def test_checker_flags_an_exit_code_that_disagrees_with_the_verdicts(uta, tmp_path):
    pop = workloads.corpus(uta, 1, REPO, tmp_path)
    op = _op(pop, "corpus.bool")
    code, out, err = op.run()
    assert op.check((code, out, err)) > 0
    with pytest.raises(checks.Mismatch):
        op.check((2 if code else 1, out, err))
    with pytest.raises(checks.Mismatch):
        op.check((code, out.replace("accept", "reject", 1), err))


def test_independent_congruence_matches_uta(uta, tmp_path):
    import random

    rng = random.Random(5)
    for n, s in workloads.RANDOM_CLASSES:
        rec = workloads.random_recognizer(uta, rng, n, s)
        res, _ = uta.recognizer.syntactic_of(rec)
        assert len(set(checks.syntactic_classes(rec).values())) == res.theta.block_count


def test_per_op_limit_fires(alarm):
    def spin():
        while True:
            pass

    op = workloads.Op("test.spin", "trees", "any", spin, lambda r: 0)
    start = time.perf_counter()
    latency, result, error = run.run_op(op, 0.2)
    assert isinstance(error, run.OpTimeout)
    assert 0.2 <= latency < 2.0
    assert time.perf_counter() - start < 2.0
    outcome = run.Outcome(op, latency, result, error)
    assert not outcome.ok and outcome.error == "OpTimeout"


def test_a_failure_counts_as_the_slowest_op_in_the_tail():
    def outcome(ms, failed=False):
        op = workloads.Op("test.op", "trees", "any", None, lambda r: 1)
        return run.Outcome(op, ms / 1000.0, None, RuntimeError("crash") if failed else None)

    outcomes = [outcome(0.1, failed=True)] + [outcome(ms) for ms in range(2, 121)]
    metrics, notes = run.summarize(outcomes, 1.0, 1.0)
    assert notes["tail_percentile"] == 90.0 and notes["beyond_tail"] == 12
    assert metrics["latency_tail_ms"][0] == pytest.approx(109.5)
    succeeded = [outcome(0.1)] + outcomes[1:]
    assert run.summarize(succeeded, 1.0, 1.0)[0]["latency_tail_ms"][0] < metrics["latency_tail_ms"][0]
    assert notes["failed_share"] == pytest.approx(1 / 120)
    repeated = outcomes + outcomes[60:]
    assert run.summarize(repeated, 1.0, 1.0)[1]["failed_share"] == pytest.approx(1 / 120)


def test_an_op_counts_once_at_the_median_of_its_runs():
    ops = [workloads.Op("test.op", "trees", "any", None, lambda r: 1) for _ in range(3)]
    runs = [run.Outcome(op, ms / 1000.0, None, None)
            for op, times in zip(ops, ([10, 11, 900], [20], [30, 31])) for ms in times]
    metrics, notes = run.summarize(runs, 1.0, 1.0)
    assert notes["ops"] == 3
    assert metrics["latency_p50_ms"][0] == pytest.approx(run.quantile([11.0, 20.0, 30.5], 50.0))
    assert metrics["ops_per_s"][0] == pytest.approx(3 / (0.011 + 0.020 + 0.0305))


def test_quantile_is_the_harrell_davis_estimate():
    assert run.quantile(list(range(1, 121)), 50.0) == pytest.approx(60.5)
    assert run.quantile([5.0] * 7, 90.0) == pytest.approx(5.0)
    # Weights are those of the order statistic at p: for p50 of three
    # values, 7/27, 13/27 and 7/27.
    assert run.quantile([0.0, 1.0, 2.0], 50.0) == pytest.approx(1.0)
    assert run.quantile([0.0, 0.0, 27.0], 50.0) == pytest.approx(7.0, rel=1e-6)


def test_process_factors_take_each_worker_to_the_median_speed():
    def report(kernel_ms, times):
        return {"kernel_s": kernel_ms / 1000.0, "runs": [[op, t, True, 0, None, None, None] for op, t in times]}

    shared = [(op, 0.01 * (op + 1)) for op in range(20)]
    reports = [
        report(10.0, shared),
        report(10.0, [(op, t * 1.25) for op, t in shared] + [(99, 5.0)]),
        report(5.0, [(op, t * 0.5) for op, t in shared]),
    ]
    factors = run.process_factors(reports)
    assert factors == pytest.approx([1.0, 1.25, 1.0])


def test_scale_converts_times_and_rates():
    def outcome(ms):
        return run.Outcome(workloads.Op("test.op", "trees", "any", None, lambda r: 1), ms / 1000.0, None, None)

    outcomes = [outcome(ms) for ms in range(1, 121)]
    plain = run.summarize(outcomes, 1.0, 1.0)[0]
    half = run.summarize(outcomes, 1.0, 0.5)[0]
    assert half["latency_p50_ms"][0] == pytest.approx(plain["latency_p50_ms"][0] / 2)
    assert half["ops_per_s"][0] == pytest.approx(plain["ops_per_s"][0] * 2)
    speed = run.Speed()
    speed.sample()
    assert speed.scale > 0 and not speed.due(0.0) and speed.due(1000.0)


def test_self_plus_child_time_is_each_parent_span(uta, tmp_path, alarm):
    pop = workloads.products(uta, 1, REPO, tmp_path)
    tracer = Tracer()
    tracer.install(run.trace_hooks())
    try:
        for op in [o for o in pop.ops if o.size in ("s=3", "m=2")][:12]:
            latency, result, error = run.run_op(op, 5.0, tracer)
            assert error is None
    finally:
        tracer.uninstall()
    assert tracer.spans and not tracer.spans_dropped
    durations = {sid: end - start for sid, _p, _n, start, end, _f in tracer.spans}
    children: dict = {}
    for sid, parent, *_ in tracer.spans:
        children.setdefault(parent, []).append(sid)
    self_times = tracer.self_times()
    for sid, _parent, name, start, end, folded in tracer.spans:
        assert self_times[sid] >= -1e-9
        total = self_times[sid] + sum(durations[c] for c in children.get(sid, ())) + folded
        assert total == pytest.approx(end - start, abs=1e-9)
    by_name: dict = {}
    for sid, _parent, name, *_ in tracer.spans:
        by_name[name] = by_name.get(name, 0.0) + self_times[sid]
    for name, value in by_name.items():
        if name in tracer.stats:
            assert tracer.stats[name][0] == pytest.approx(value, abs=1e-6)


def test_tracer_restores_every_binding(uta):
    before = {n: getattr(uta.recognizer, n) for n in ("equivalent", "membership", "intersect")}
    cls_init = uta.horizon.MooreMachine.__post_init__
    tracer = Tracer()
    tracer.install()
    assert uta.recognizer.equivalent is not before["equivalent"]
    tracer.uninstall()
    assert {n: getattr(uta.recognizer, n) for n in before} == before
    assert uta.horizon.MooreMachine.__post_init__ is cls_init


def _bench(*args, cwd=REPO):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run(workload, trace):
    out = _bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    names = {m["name"] for m in json.loads((REPO / "BENCHMARK.json").read_text())
             ["end_to_end" if trace == "0" else "per_layer"]}
    assert set(result["metrics"]) == names


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = _bench("--workload", "corpus", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
