"""Elementary translations found by search over state tuples, checked
against the transition-monoid scan they replaced; the lazy first layer of
the translation walk; the work ``decide_nil`` shares between sides; and
the least trees only a ``def`` *no* builds."""

import random
from itertools import chain, islice

from uta import (
    Translation,
    decide_aperiodic,
    decide_definite,
    decide_nil,
    membership,
    root_segment,
    syntactic_of,
    translation_walk,
    trim,
)
from uta import algebra, recognizer, varieties
from uta.algebra import elementary_translations
from uta.workspace import load_workspace

from helpers import (
    counted_closures,
    counted_namings,
    monoid_elementary_translations,
    monoid_translation_walk,
    refuse_walks,
    untrimmed_recognizer,
)
from test_finiteness import FIXTURE_FILES, nil_draws


def test_translation_search_matches_the_monoid_scan():
    """Seeded draws of up to 7 states per machine, and their syntactic
    algebras: the same elementary translations as the monoid scan, as
    sequences (tables and provenance, in order), and the same first 500
    translations of the walk.  Larger carriers with fewer states give the
    longer walks."""
    rng = random.Random(181)
    maps = walked = full = 0
    for draws, elements, states in ((100, (1, 4), (2, 7)), (25, (5, 6), (3, 5))):
        for _ in range(draws):
            rec = untrimmed_recognizer(rng, rng.randint(*elements), rng.randint(*states))
            for alg in (rec.algebra, syntactic_of(rec)[1].algebra):
                for f in alg.sigma:
                    got = tuple(elementary_translations(alg, f))
                    assert got == monoid_elementary_translations(alg, f)
                    maps += len(got)
                got = list(islice(translation_walk(alg), 500))
                assert got == list(islice(monoid_translation_walk(alg), 500))
                walked += len(got)
                full += len(got) == 500
    assert maps > 4000 and walked > 4000 and full >= 1


# Generator seeds of draws with 3 to 6 elements and up to 9 states whose
# syntactic machines have 8 or 9 states and whose aperiodicity is refuted
# by an elementary translation; listing the transition monoids took 0.18
# to 47 s of their `ap`.
LARGE_DRAWS = (8, 11, 12, 118)


def large_draw(seed):
    rng = random.Random(seed)
    return untrimmed_recognizer(rng, rng.randint(3, 6), 9)


def test_ap_no_draws_no_elementary_map_past_the_refuting_one(monkeypatch):
    """On the large draws, an `ap` *no* pulls the elementary translations
    up to the refuting map and not one past it; the `def` *no* witnesses
    share their top segment and differ by membership.  `ap` pulls them over
    the class numbers, which name the syntactic recognizer's classes in
    order."""
    pulled = []

    def counted(alg, f):
        for e in elementary_translations(alg, f):
            pulled.append(e)
            yield e

    monkeypatch.setattr(algebra, "elementary_translations", counted)
    for seed in LARGE_DRAWS:
        rec = large_draw(seed)
        alg = syntactic_of(rec)[1].algebra
        assert max(len(m.states) for m in alg.ops.values()) in (8, 9)
        pulled.clear()
        verdict = decide_aperiodic(rec)
        assert not verdict.holds
        name = lambda w: tuple(alg.elements[i] for i in w)  # noqa: E731
        named = [Translation(name(e.table), tuple((f, name(u), name(v)) for f, u, v in e.provenance))
                 for e in pulled]
        assert named and named[-1] == verdict.counterexample
        every = chain.from_iterable(elementary_translations(alg, f) for f in alg.sigma)
        prefix = list(islice(every, len(named) + 1))
        assert prefix[:-1] == named and len(prefix) == len(named) + 1
        for k in (1, 2, None):
            verdict = decide_definite(rec, k)
            assert not verdict.holds
            t1, t2 = verdict.counterexample
            if k is not None:
                assert root_segment(t1, k) == root_segment(t2, k)
            assert membership(rec, t1) != membership(rec, t2)


def test_decide_nil_walks_each_machine_once(monkeypatch):
    """The language's side and the complement's share one graph, read off
    the rows of the trim's one closure: each machine gets one breadth-first
    pass over its rows (the trim's, when the trim cuts, which the graph
    reuses), ``reachable_with_witnesses`` walks nothing, and the least-tree
    search runs at most once."""
    searches, least = [], recognizer._least_trees

    def counted_least(rec):
        searches.append(rec)
        return least(rec)

    refuse_walks(monkeypatch, ("reachable_with_witnesses",))
    closures, namings = counted_closures(monkeypatch), counted_namings(monkeypatch)
    monkeypatch.setattr(recognizer, "_least_trees", counted_least)
    fixtures = list(load_workspace(FIXTURE_FILES).recognizers.values())
    both = cuts = 0
    for rec in nil_draws(5013, 300) + fixtures:
        cuts += trim(rec) is not rec
        closures.clear(), namings.clear(), searches.clear()
        verdict = decide_nil(rec)
        assert len(closures) == 1
        assert namings == [rec.algebra.ops[f].start for f in rec.algebra.sigma]
        assert len(searches) <= 1
        both += not verdict.holds
    assert both > 50 and cuts > 50


def test_decide_definite_builds_least_trees_for_a_no_only(monkeypatch):
    """A ``def`` *yes* reads no tree, so it runs no least-tree search; a
    *no* runs one, for its counterexample."""
    searches, least = [], recognizer._least_trees

    def counted_least(rec):
        searches.append(rec)
        return least(rec)

    for mod in (recognizer, varieties):
        monkeypatch.setattr(mod, "_least_trees", counted_least)
    rng = random.Random(1912)
    draws = [untrimmed_recognizer(rng, rng.randint(2, 5), rng.randint(1, 4)) for _ in range(100)]
    answers = {True: 0, False: 0}
    for rec in draws + list(load_workspace(FIXTURE_FILES).recognizers.values()):
        for k in (None, 0, 1, 2):
            searches.clear()
            verdict = decide_definite(rec, k)
            assert len(searches) == (not verdict.holds)
            answers[verdict.holds] += 1
    assert min(answers.values()) > 100
