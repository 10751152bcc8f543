"""The syntactic recognizer in one pass: one closure from the valuation, one
refinement over the states it reached, the quotient read off its rows.

The path it replaced (trim through ``subalgebra``, then ``_refine`` and
``_quotient`` on the trimmed algebra, each with its own breadth-first
search) is kept here as the referee, with the closure that repeated a full
search per round.  On seeded and fixture recognizers both must give the same
congruence, morphism, accepting image and quotient machines as data.

``trim`` is one closure too, its machines read off the closure's rows; the
trim through a subalgebra cut by ``restrict_machine``, which closed the
carrier a second time as a check, is its referee.  The pair products close
once as well, and neither walks a machine after its closure.
"""

import random
import time
from dataclasses import replace
from pathlib import Path

import pytest

from uta import (
    MooreMachine,
    Partition,
    Recognizer,
    RegularAlgebra,
    generated_closure,
    syntactic_algebra,
    syntactic_of,
)
from uta import algebra, equivalent, intersect, oracle, recognizer, syntactic, trim, union
from uta.algebra import AlgebraError, _closure
from uta.horizon import _breadth_first, reachable_with_witnesses
from uta.workspace import load_workspace

from helpers import (
    counted_closures,
    counted_namings,
    machine_data,
    random_machine,
    random_recognizer,
    recognizer_data,
    ref_reachable_with_witnesses,
    refuse_walks,
    restrict_machine,
    subsets,
    untrimmed_recognizer,
    walked_subalgebra,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


# ---------------------------------------------------------------------------
# The path the one-pass construction replaced


def ref_closure(alg, omega, seed):
    """Rounds of a full breadth-first search per machine over the subset so
    far, until no output is new."""
    current = set(seed)
    changed = True
    while changed:
        changed = False
        letters = [a for a in alg.elements if a in current]
        for f in omega:
            states, _ = ref_reachable_with_witnesses(alg.ops[f], letters)
            for q in states:
                b = alg.ops[f].out[q]
                if b not in current:
                    current.add(b)
                    changed = True
    return tuple(a for a in alg.elements if a in current)


def ref_trim(rec):
    reach = ref_closure(rec.algebra, rec.algebra.sigma, set(rec.valuation.values()))
    if reach == rec.algebra.elements:
        return rec
    ops = {f: restrict_machine(rec.algebra.ops[f], reach) for f in rec.algebra.sigma}
    alg = RegularAlgebra(reach, rec.algebra.sigma, ops)
    return Recognizer(alg, rec.table, rec.valuation, rec.finals & set(reach))


def ref_subalgebra_trim(rec):
    """The trim through ``subalgebra``, which closes the carrier again to
    check it before cutting the machines."""
    reach = ref_closure(rec.algebra, rec.algebra.sigma, set(rec.valuation.values()))
    if reach == rec.algebra.elements:
        return rec
    alg = walked_subalgebra(rec.algebra, reach)
    return Recognizer(alg, rec.table, rec.valuation, rec.finals & set(reach))


def ref_refine(alg, key):
    """Moore rounds on dicts keyed by (operator index, state)."""
    elements = alg.elements
    machines = []
    for f in alg.sigma:
        m = alg.ops[f]
        states, _ = reachable_with_witnesses(m)
        machines.append((m, states))
    elem = {a: key(a) for a in elements}
    state = {(i, q): i for i, (_m, states) in enumerate(machines) for q in states}
    count = len(set(elem.values())) + len(machines)
    while True:
        ids: dict = {}
        new_state = {
            (i, q): ids.setdefault(
                (
                    state[(i, q)],
                    elem[m.out[q]],
                    tuple(state[(i, m.delta[(q, c)])] for c in elements),
                ),
                len(ids),
            )
            for i, (m, states) in enumerate(machines)
            for q in states
        }
        new_elem = {
            a: ids.setdefault(
                (
                    elem[a],
                    tuple(
                        state[(i, m.delta[(q, a)])]
                        for i, (m, states) in enumerate(machines)
                        for q in states
                    ),
                ),
                len(ids),
            )
            for a in elements
        }
        if len(ids) == count:
            return Partition.from_key(elements, elem.__getitem__), state
        elem, state, count = new_elem, new_state, len(ids)


def ref_quotient(alg, theta, state_classes):
    """A breadth-first search per machine over the first element of each
    class, naming states by the class they first meet."""
    firsts = tuple(b[0] for b in theta.blocks)
    name = {a: theta.class_name(a) for a in firsts}
    letters = tuple(name.values())
    ops = {}
    for i, f in enumerate(alg.sigma):
        m = alg.ops[f]
        reps: dict = {}
        for q in ref_reachable_with_witnesses(m, firsts)[0]:
            reps.setdefault(state_classes[(i, q)], q)
        qname = {c: f"q{n}" for n, c in enumerate(reps)}
        delta = {
            (qname[c], name[a]): qname[state_classes[(i, m.delta[(q, a)])]]
            for c, q in reps.items()
            for a in firsts
        }
        out = {qname[c]: theta.class_name(m.out[q]) for c, q in reps.items()}
        ops[f] = MooreMachine(tuple(qname.values()), letters, "q0", delta, out)
    return RegularAlgebra(letters, alg.sigma, ops)


def ref_syntactic_of(rec):
    t = ref_trim(rec)
    theta, state_classes = ref_refine(t.algebra, t.finals.__contains__)
    quot = ref_quotient(t.algebra, theta, state_classes)
    morphism = {a: theta.class_name(a) for a in t.algebra.elements}
    valuation = {x: morphism[t.valuation[x]] for x in t.table.leaves}
    finals = frozenset(morphism[a] for a in t.finals)
    return theta, quot, morphism, finals, Recognizer(quot, t.table, valuation, finals)


# ---------------------------------------------------------------------------
# Referee property


def assert_same_as_the_referee(rec):
    res, srec = syntactic_of(rec)
    theta, quot, morphism, finals, ref_srec = ref_syntactic_of(rec)
    assert res.theta == theta
    assert tuple(res.morphism.items()) == tuple(morphism.items())
    assert res.finals_image == finals
    assert res.algebra.elements == quot.elements and res.algebra.sigma == quot.sigma
    for f in quot.sigma:
        assert machine_data(res.algebra.ops[f]) == machine_data(quot.ops[f])
    assert srec == ref_srec
    assert tuple(srec.valuation.items()) == tuple(ref_srec.valuation.items())


def test_syntactic_of_matches_the_trimmed_path():
    """2,400 seeded recognizers: 400 trimmed draws of the shared helpers and
    2,000 untrimmed ones with 1-9 elements and 1-6 states, every 100th
    with 30, 60 or 100 elements."""
    t0 = time.time()
    rng = random.Random(20261019)
    shrunk = 0
    for _ in range(400):
        assert_same_as_the_referee(random_recognizer(rng))
    for i in range(2000):
        n = (30, 60, 100)[i // 100 % 3] if i % 100 == 0 else rng.randint(1, 9)
        rec = untrimmed_recognizer(rng, n, 6)
        assert_same_as_the_referee(rec)
        shrunk += len(ref_trim(rec).algebra.elements) < n
    assert 500 < shrunk < 1500
    assert time.time() - t0 < 30.0


def test_syntactic_of_matches_the_trimmed_path_on_the_fixtures():
    """Every fixture recognizer, and each with every accepting set."""
    files = ("parity.uta", "root.uta", "bool.uta", "xml.uta")
    recs = load_workspace([str(FIXTURES / f) for f in files]).recognizers.values()
    assert len(recs) == 4
    for rec in recs:
        for finals in subsets(rec.algebra.elements):
            assert_same_as_the_referee(replace(rec, finals=finals))


def test_syntactic_of_does_nothing_twice(monkeypatch):
    """No trimmed algebra, and one closure with one refinement per call."""

    def refuse(*args):
        raise AssertionError("syntactic_of builds no trimmed algebra")

    for mod, names in (
        (algebra, ("generated_closure",)),
        (oracle, ("subalgebra",)),
        (recognizer, ("trim", "_trim", "reachable_carrier", "generated_closure")),
    ):
        for name in names:
            monkeypatch.setattr(mod, name, refuse)
    calls = {"_refine": [], "_closure": []}

    def counted(name):
        inner = getattr(algebra, name)

        def count(*args):
            calls[name].append(args)
            return inner(*args)

        return count

    for name in calls:
        monkeypatch.setattr(algebra, name, counted(name))
    monkeypatch.setattr(syntactic, "_refine", algebra._refine)
    monkeypatch.setattr(recognizer, "_closure", algebra._closure)
    rng = random.Random(7)
    for _ in range(40):
        rec = untrimmed_recognizer(rng, rng.randint(1, 6), 4)
        for found in calls.values():
            found.clear()
        syntactic_of(rec)
        assert len(calls["_refine"]) == 1 and len(calls["_closure"]) == 1


def test_trim_matches_the_subalgebra_referee():
    """Seeded untrimmed recognizers and the fixtures: the same recognizer
    as data, carrier order and each machine's state order included."""
    rng = random.Random(20261020)
    cut = 0
    for _ in range(600):
        rec = untrimmed_recognizer(rng, rng.randint(1, 9), 6)
        got = trim(rec)
        assert recognizer_data(got) == recognizer_data(ref_subalgebra_trim(rec))
        cut += got is not rec
    assert 100 < cut < 500
    files = ("parity.uta", "root.uta", "bool.uta", "xml.uta")
    for rec in load_workspace([str(FIXTURES / f) for f in files]).recognizers.values():
        assert recognizer_data(trim(rec)) == recognizer_data(ref_subalgebra_trim(rec))


def test_trim_closes_once(monkeypatch):
    """One closure per trim, no ``subalgebra`` re-check and no machine
    walk: a trim that cuts reads each machine off the closure's rows in one
    breadth-first pass, and one that cuts nothing makes no pass at all."""

    def refuse(*args):
        raise AssertionError("trim makes no subalgebra")

    monkeypatch.setattr(oracle, "subalgebra", refuse)
    refuse_walks(monkeypatch)
    calls, namings = counted_closures(monkeypatch), counted_namings(monkeypatch)
    rng = random.Random(8)
    cut = 0
    for _ in range(40):
        rec = untrimmed_recognizer(rng, rng.randint(1, 6), 4)
        calls.clear()
        namings.clear()
        trimmed = trim(rec) is not rec
        cut += trimmed
        assert len(calls) == 1
        starts = [rec.algebra.ops[f].start for f in rec.algebra.sigma]
        assert namings == (starts if trimmed else [])
    assert 0 < cut < 40


def test_pair_products_close_once(monkeypatch):
    """One closure per intersection, union and equivalence, each machine
    read off its rows in one breadth-first pass, and no pair search: no
    ``_product_reach`` and no other machine walk."""
    assert "_product_reach" not in vars(recognizer)
    refuse_walks(monkeypatch)
    calls, namings = counted_closures(monkeypatch), counted_namings(monkeypatch)
    rng = random.Random(9)
    for _ in range(40):
        rec = untrimmed_recognizer(rng, rng.randint(1, 6), 4)
        other = untrimmed_recognizer(rng, rng.randint(1, 6), 4, rec.table)
        for combine in (intersect, union, equivalent):
            calls.clear()
            namings.clear()
            combine(rec, other)
            assert len(calls) == 1
            starts = [(rec.algebra.ops[f].start, other.algebra.ops[f].start) for f in rec.table.operators]
            assert namings == starts


# ---------------------------------------------------------------------------
# The incremental closure against the full search per round


def test_closure_matches_the_full_search():
    """The closed elements are the rounds' referee's.  Each machine's states
    are those a search over the closed elements reaches, its start first;
    each state's row holds the successor of every closed element.  The
    breadth-first pass over the rows gives the search's states and words,
    in its order."""
    rng = random.Random(31)
    sigma = ("f", "g", "h")
    for _ in range(600):
        n = rng.randint(1, 8)
        elements = tuple(str(i) for i in range(n))
        ops = {f: random_machine(rng, elements, 5) for f in sigma}
        alg = RegularAlgebra(elements, sigma, ops)
        omega = tuple(f for f in sigma if rng.random() < 0.6) or ("g",)
        seed = frozenset(a for a in elements if rng.random() < 0.3)
        for s in (seed, ()):
            machines = [alg.ops[f] for f in omega]
            closed, reached = _closure(elements, machines, s)
            assert closed == generated_closure(alg, omega, s) == ref_closure(alg, omega, s)
            assert len(reached) == len(machines)
            for m, rows in zip(machines, reached):
                want_states, want_words = ref_reachable_with_witnesses(m, closed)
                assert next(iter(rows)) == m.start and set(rows) == set(want_states)
                for q, row in rows.items():
                    assert list(row) == [m.delta[q, a] for a in closed]
                words = _breadth_first(m.start, rows.__getitem__, closed)
                assert list(words.items()) == list(want_words.items())
        assert generated_closure(alg, None, seed) == ref_closure(alg, sigma, seed)


def test_closure_refuses_as_before():
    par = RegularAlgebra(("0", "1"), ("f",), {"f": random_machine(random.Random(1), ("0", "1"))})
    with pytest.raises(AlgebraError, match=r"^seed element 2 outside carrier$"):
        generated_closure(par, ("f",), ("0", "2"))
    with pytest.raises(AlgebraError, match=r"^seed element \(0,1\) outside carrier$"):
        generated_closure(par, None, (("0", "1"),))
    with pytest.raises(AlgebraError, match="need at least one operator"):
        generated_closure(par, (), ())
    with pytest.raises(AlgebraError, match="unknown operator 'g'"):
        generated_closure(par, ("g",), ())


def test_syntactic_algebra_of_the_whole_carrier_matches_the_referee():
    """Untrimmed algebras: the refinement runs over every element and every
    state reachable over the whole carrier, as the old path did."""
    rng = random.Random(44)
    for _ in range(300):
        rec = untrimmed_recognizer(rng, rng.randint(1, 7), 5)
        alg, H = rec.algebra, rec.finals
        res = syntactic_algebra(alg, H)
        theta, state_classes = ref_refine(alg, H.__contains__)
        quot = ref_quotient(alg, theta, state_classes)
        assert res.theta == theta
        assert [machine_data(res.algebra.ops[f]) for f in alg.sigma] == [
            machine_data(quot.ops[f]) for f in alg.sigma
        ]
