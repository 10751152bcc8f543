"""``def`` and ``ap`` on the refinement's rows, checked against the deciders
that ran on the named syntactic recognizer (``helpers.ref_decide_definite``
and ``helpers.ref_decide_aperiodic``): equal verdicts as data on seeded
draws, the fixtures and the size counters; the work each verdict makes;
the separating contexts and least trees a *no* reads off the classes; and
verdicts that depend on the language only, whatever recognizes it."""

import random
from itertools import permutations
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
from uta import algebra, recognizer, syntactic, varieties
from uta.algebra import TRIVIAL_ELEMENT, _class_algebra, _refine, trivial_algebra
from uta.recognizer import size_at_least_recognizer
from uta.varieties import _class_trees, _separating_context
from uta.workspace import load_workspace

from helpers import (
    counted_machines,
    least_value_trees,
    ref_decide_aperiodic,
    ref_decide_definite,
    ref_separating_context,
    untrimmed_recognizer,
)

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
    """Count ``_refine``, ``_class_algebra`` and ``_quotient`` calls, and
    list the machines built; refuse ``syntactic_of``."""
    work = {"_refine": 0, "_class_algebra": 0, "_quotient": 0}

    def counted(mod, name):
        inner = getattr(mod, name)

        def count(*args):
            work[name] += 1
            return inner(*args)

        monkeypatch.setattr(mod, name, count)

    def refuse(*args):
        raise AssertionError("no syntactic recognizer")

    counted(varieties, "_refine")
    counted(varieties, "_class_algebra")
    counted(algebra, "_quotient")
    counted(syntactic, "_quotient")
    monkeypatch.setattr(recognizer, "syntactic_of", refuse)
    return work, counted_machines(monkeypatch)


def test_work_each_verdict_makes(monkeypatch):
    """Every ``def`` and ``ap`` verdict makes one refinement, no quotient
    and no machine, and reads at most one set of class machines; a ``def``
    at depth 0 reads none (its trees and finals are the classes'), and an
    ``ap`` reads one unless the language has one class."""
    rng = random.Random(1907)
    recs = [untrimmed_recognizer(rng, rng.randint(2, 5), rng.randint(1, 4)) for _ in range(60)]
    recs += fixture_recognizers() + size_counters(6)
    work, machines = count_work(monkeypatch)
    seen = set()
    for rec in recs:
        classes = _refine(rec.algebra, rec.finals.__contains__, rec.valuation.values())[0].block_count
        for k in KS:
            work.update(dict.fromkeys(work, 0))
            machines.clear()
            verdict = decide_definite(rec, k)
            assert work["_refine"] == 1 and work["_quotient"] == 0 and machines == []
            assert work["_class_algebra"] <= (k != 0)
            seen.add(("Def", k == 0, verdict.holds))
        work.update(dict.fromkeys(work, 0))
        verdict = decide_aperiodic(rec)
        assert work == {"_refine": 1, "_class_algebra": int(classes > 1), "_quotient": 0} and machines == []
        seen.add(("Ap", verdict.holds))
    assert len(seen) == 6


def class_view(rec):
    """theta, the class machines of one refinement and the accepted classes."""
    theta, table = _refine(rec.algebra, rec.finals.__contains__, rec.valuation.values())
    finals = {c for c, b in enumerate(theta.blocks) if b[0] in rec.finals}
    return theta, _class_algebra(rec.algebra, theta, table), finals


def test_separating_contexts_on_the_class_machines_and_the_named_quotient():
    """500 seeded draws, the fixtures and the size counters up to 8: for
    every ordered pair of classes, the class machines and the syntactic
    recognizer's named machines give the same context, the one the search
    on ``delta`` gave (``helpers.ref_separating_context``)."""
    rng = random.Random(2401)
    draws = [untrimmed_recognizer(rng, rng.randint(2, 5), rng.randint(1, 4)) for _ in range(500)]
    pairs = 0
    for rec in draws + fixture_recognizers() + size_counters(8):
        _theta, calg, finals = class_view(rec)
        srec = syntactic_of(rec)[1]
        names, value_trees = srec.algebra.elements, least_value_trees(srec)
        assert [x in srec.finals for x in names] == [c in finals for c in calg.elements]
        trees = [value_trees[x] for x in names]
        for a, b in permutations(calg.elements, 2):
            got = _separating_context(calg, finals, a, b, trees)
            assert got == _separating_context(srec.algebra, srec.finals, names[a], names[b], value_trees)
            assert got == ref_separating_context(srec, names[a], names[b], value_trees), (rec, a, b)
            pairs += 1
    assert pairs > 1000


def test_class_trees_are_the_syntactic_recognizer_s_least_trees():
    """1,000 seeded draws and the fixtures: the least of each class's
    elements' least trees is the least tree of the class's element in the
    syntactic recognizer."""
    rng = random.Random(2402)
    draws = [untrimmed_recognizer(rng, rng.randint(2, 5), rng.randint(1, 4)) for _ in range(1000)]
    for rec in draws + fixture_recognizers():
        theta = class_view(rec)[0]
        srec = syntactic_of(rec)[1]
        value_trees = least_value_trees(srec)
        assert _class_trees(rec, theta) == [value_trees[x] for x in srec.algebra.elements], rec


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
