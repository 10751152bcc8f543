"""``def`` and ``ap`` on the refinement's rows, checked against the deciders
that ran on the named syntactic recognizer (``helpers.ref_decide_definite``
and ``helpers.ref_decide_aperiodic``): equal verdicts as data on seeded
draws, the fixtures and the size counters; the work each verdict makes;
and verdicts that depend on the language only, whatever recognizes it."""

import random
from pathlib import Path

from hypothesis import given, settings, strategies as st

from uta import (
    MooreMachine,
    Recognizer,
    RegularAlgebra,
    SymbolTable,
    decide_aperiodic,
    decide_definite,
    intersect,
    syntactic_of,
    trim,
)
from uta import horizon, recognizer, syntactic, varieties
from uta.algebra import TRIVIAL_ELEMENT, trivial_algebra
from uta.recognizer import size_at_least_recognizer
from uta.workspace import load_workspace

from helpers import ref_decide_aperiodic, ref_decide_definite, untrimmed_recognizer

ROOT = Path(__file__).resolve().parent.parent
WORKSPACES = [str(ROOT / "fixtures" / f) for f in ("bool.uta", "parity.uta", "root.uta", "xml.uta")] + [
    str(ROOT / "tests" / "workspaces" / f) for f in ("untrimmed.uta", "redundant.uta")
]
KS = (None, 0, 1, 2, 3)


def fixture_recognizers():
    recs = []
    for path in WORKSPACES:
        recs += load_workspace([path]).recognizers.values()
    return recs


def size_counters(up_to):
    table = SymbolTable(("f",), ("x",))
    return [size_at_least_recognizer(table, s) for s in range(1, up_to + 1)]


def test_verdicts_match_the_named_deciders():
    """1,000 seeded untrimmed draws with k in {None, 0, 1, 2, 3}, the
    fixtures and the size counters up to 12: the same verdicts as data
    (holds, parameter, detail, witness trees, and a refuting translation's
    table and provenance)."""
    rng = random.Random(2311)
    draws = [untrimmed_recognizer(rng, rng.randint(2, 5), rng.randint(1, 4)) for _ in range(1000)]
    answers = {("Def", True): 0, ("Def", False): 0, ("Ap", True): 0, ("Ap", False): 0}
    for rec in draws + fixture_recognizers() + size_counters(12):
        srec = syntactic_of(rec)[1]
        for k in KS:
            got = decide_definite(rec, k)
            assert got == ref_decide_definite(rec, k, srec), (rec, k)
            answers["Def", got.holds] += 1
        got = decide_aperiodic(rec)
        assert got == ref_decide_aperiodic(rec, srec), rec
        answers["Ap", got.holds] += 1
    assert min(answers.values()) > 150


def count_work(monkeypatch):
    """Count ``_refine`` and ``_quotient`` calls and machines built; refuse
    ``syntactic_of``."""
    work = {"_refine": 0, "_quotient": 0, "machines": 0}

    def counted(mod, name):
        inner = getattr(mod, name)

        def count(*args):
            work[name] += 1
            return inner(*args)

        monkeypatch.setattr(mod, name, count)

    def refuse(*args):
        raise AssertionError("no syntactic recognizer")

    counted(varieties, "_refine")
    counted(syntactic, "_quotient")
    inner_init = horizon.MooreMachine.__post_init__

    def init(self):
        work["machines"] += 1
        inner_init(self)

    monkeypatch.setattr(horizon.MooreMachine, "__post_init__", init)
    monkeypatch.setattr(recognizer, "syntactic_of", refuse)
    return work


def test_work_each_verdict_makes(monkeypatch):
    """A ``def`` *yes* and every ``ap`` verdict make one refinement, no
    quotient and no machine; a ``def`` *no* makes one refinement and one
    quotient, for its trees."""
    rng = random.Random(1907)
    recs = [untrimmed_recognizer(rng, rng.randint(2, 5), rng.randint(1, 4)) for _ in range(60)]
    recs += fixture_recognizers() + size_counters(6)
    work = count_work(monkeypatch)
    seen = set()
    for rec in recs:
        for k in KS:
            work.update(dict.fromkeys(work, 0))
            verdict = decide_definite(rec, k)
            if verdict.holds:
                assert work == {"_refine": 1, "_quotient": 0, "machines": 0}
            else:
                assert work["_refine"] == 1 and work["_quotient"] == 1
            seen.add(("Def", verdict.holds))
        work.update(dict.fromkeys(work, 0))
        verdict = decide_aperiodic(rec)
        assert work == {"_refine": 1, "_quotient": 0, "machines": 0}
        seen.add(("Ap", verdict.holds))
    assert len(seen) == 4


def all_trees(table):
    return Recognizer(trivial_algebra(table.operators), table,
                      dict.fromkeys(table.leaves, TRIVIAL_ELEMENT), frozenset({TRIVIAL_ELEMENT}))


def with_junk(rec):
    """rec with one more element that no tree reaches, accepted: each
    machine reads it into its last state, and none outputs it."""
    alg, junk = rec.algebra, "junk"
    ops = {}
    for f in alg.sigma:
        m = alg.ops[f]
        delta = {**m.delta, **{(q, junk): m.states[-1] for q in m.states}}
        ops[f] = MooreMachine(m.states, m.alphabet + (junk,), m.start, delta, m.out)
    return Recognizer(RegularAlgebra(alg.elements + (junk,), alg.sigma, ops), rec.table,
                      rec.valuation, rec.finals | {junk})


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_verdicts_depend_on_the_language_only(seed):
    """Five recognizers of one language: the recognizer, its trim, its
    syntactic recognizer, the recognizer with an unreachable junk element,
    and its product with a recognizer of all trees.  ``def`` gives one
    least k, or no, and ``ap`` one index, or no, on all five."""
    rng = random.Random(seed)
    rec = untrimmed_recognizer(rng, rng.randint(1, 5), rng.randint(1, 4))
    views = [rec, trim(rec), syntactic_of(rec)[1], with_junk(rec), intersect(rec, all_trees(rec.table))]
    for decide in (decide_definite, decide_aperiodic):
        assert len({(v.holds, v.parameter) for v in map(decide, views)}) == 1
