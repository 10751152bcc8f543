"""Shared fixture recognizers and seeded random generators for the tests."""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, replace
from itertools import combinations

from uta import (
    MooreMachine,
    Recognizer,
    RegularAlgebra,
    SymbolTable,
    TermGMorphism,
    Translation,
    leaf,
    op,
    trim,
)


def parity_machine() -> MooreMachine:
    delta = {
        ("q0", "0"): "q0",
        ("q0", "1"): "q1",
        ("q1", "0"): "q1",
        ("q1", "1"): "q0",
    }
    return MooreMachine(("q0", "q1"), ("0", "1"), "q0", delta, {"q0": "0", "q1": "1"})


def const_machine(value, elements) -> MooreMachine:
    elements = tuple(elements)
    delta = {("q0", a): "q0" for a in elements}
    return MooreMachine(("q0",), elements, "q0", delta, {"q0": value})


def or_machine() -> MooreMachine:
    delta = {
        ("q0", "0"): "q0",
        ("q0", "1"): "q1",
        ("q1", "0"): "q1",
        ("q1", "1"): "q1",
    }
    return MooreMachine(("q0", "q1"), ("0", "1"), "q0", delta, {"q0": "0", "q1": "1"})


def parity_algebra() -> RegularAlgebra:
    return RegularAlgebra(("0", "1"), ("f",), {"f": parity_machine()})


def root_algebra() -> RegularAlgebra:
    return RegularAlgebra(
        ("0", "1"),
        ("f", "g"),
        {"f": const_machine("1", ("0", "1")), "g": const_machine("0", ("0", "1"))},
    )


PARITY_TABLE = SymbolTable(("f",), ("x",))
ROOT_TABLE = SymbolTable(("f", "g"), ("x",))
BOOL_TABLE = SymbolTable(("f",), ("x", "y"))


def parity_odd() -> Recognizer:
    return Recognizer(parity_algebra(), PARITY_TABLE, {"x": "1"}, frozenset({"1"}))


def root_f() -> Recognizer:
    return Recognizer(root_algebra(), ROOT_TABLE, {"x": "0"}, frozenset({"1"}))


def all_trees_rec() -> Recognizer:
    return Recognizer(parity_algebra(), PARITY_TABLE, {"x": "1"}, frozenset({"0", "1"}))


def empty_rec() -> Recognizer:
    return Recognizer(parity_algebra(), PARITY_TABLE, {"x": "1"}, frozenset())


def singleton_x3() -> Recognizer:
    """Accepts exactly the leaf x, through a deliberately non-minimal
    3-element algebra (the two non-x values get merged syntactically)."""
    elements = ("m", "n0", "n1")
    delta = {("s0", a): "s1" for a in elements} | {("s1", a): "s1" for a in elements}
    m = MooreMachine(("s0", "s1"), elements, "s0", delta, {"s0": "n0", "s1": "n1"})
    alg = RegularAlgebra(elements, ("f",), {"f": m})
    return Recognizer(alg, PARITY_TABLE, {"x": "m"}, frozenset({"m"}))


def contains_x() -> Recognizer:
    """Trees in which the leaf x occurs somewhere (y is inert)."""
    alg = RegularAlgebra(("0", "1"), ("f",), {"f": or_machine()})
    return Recognizer(alg, BOOL_TABLE, {"x": "1", "y": "0"}, frozenset({"1"}))


def bool_true() -> Recognizer:
    """Unranked and/or expressions that evaluate to true."""
    table = SymbolTable(("disj", "conj"), ("zero", "one"))
    elements = ("0", "1")
    orm = MooreMachine(
        ("q0", "q1"),
        elements,
        "q0",
        {("q0", "0"): "q0", ("q0", "1"): "q1", ("q1", "0"): "q1", ("q1", "1"): "q1"},
        {"q0": "0", "q1": "1"},
    )
    andm = MooreMachine(
        ("q0", "q1"),
        elements,
        "q0",
        {("q0", "0"): "q1", ("q0", "1"): "q0", ("q1", "0"): "q1", ("q1", "1"): "q1"},
        {"q0": "1", "q1": "0"},
    )
    alg = RegularAlgebra(elements, table.operators, {"disj": orm, "conj": andm})
    return Recognizer(alg, table, {"zero": "0", "one": "1"}, frozenset({"1"}))


def machine_data(m):
    """A machine as data: states, alphabet and maps in their order."""
    return m.states, m.alphabet, m.start, tuple(m.delta.items()), tuple(m.out.items())


def recognizer_data(rec):
    """A recognizer as data: carrier order, each machine with its state
    order, valuation and finals."""
    alg = rec.algebra
    return (
        alg.elements,
        alg.sigma,
        [machine_data(alg.ops[f]) for f in alg.sigma],
        tuple(rec.valuation.items()),
        rec.finals,
    )


def subsets(xs):
    """Every subset of xs as a frozenset, smallest first."""
    xs = tuple(xs)
    for r in range(len(xs) + 1):
        yield from (frozenset(c) for c in combinations(xs, r))


# ---------------------------------------------------------------------------
# The machine searches that ``horizon._state_walk`` replaced, kept as referees


def ref_reachable_with_witnesses(m: MooreMachine, letters=None):
    """Breadth-first over the given letters (default: all) from the start;
    returns (states, witness words)."""
    letters = tuple(m.alphabet if letters is None else letters)
    order = [m.start]
    words = {m.start: ()}
    queue = deque([m.start])
    while queue:
        q = queue.popleft()
        for a in letters:
            q2 = m.delta[(q, a)]
            if q2 not in words:
                words[q2] = words[q] + (a,)
                order.append(q2)
                queue.append(q2)
    return tuple(order), words


def ref_word_to(m: MooreMachine, q, target) -> tuple:
    """Shortest word from state q to a state whose output is target, by the
    search above on a copy of the machine started at q."""
    states, words = ref_reachable_with_witnesses(replace(m, start=q))
    return words[next(p for p in states if m.out[p] == target)]


# ---------------------------------------------------------------------------
# The transition-monoid scans that the translation searches replaced, kept
# as referees


@dataclass(frozen=True)
class StateFunction:
    """A tabulated map on machine states (aligned with ``states`` order),
    together with one shortest witness word inducing it."""

    table: tuple
    witness: tuple


def transition_monoid(m: MooreMachine) -> tuple:
    """All state maps induced by words, closed under composition.

    Breadth-first over appended letters, so each map carries a shortest
    witness (ties broken by alphabet order).  Contains the identity.
    """
    pos = {q: i for i, q in enumerate(m.states)}
    letter_map = {a: tuple(m.delta[(q, a)] for q in m.states) for a in m.alphabet}
    identity = tuple(m.states)
    found = {identity: ()}
    order = [StateFunction(identity, ())]
    queue = deque([identity])
    while queue:
        cur = queue.popleft()
        for a in m.alphabet:
            lm = letter_map[a]
            nxt = tuple(lm[pos[q]] for q in cur)
            if nxt not in found:
                found[nxt] = found[cur] + (a,)
                order.append(StateFunction(nxt, found[nxt]))
                queue.append(nxt)
    return tuple(order)


def monoid_elementary_translations(alg: RegularAlgebra, f: str) -> tuple:
    """All maps a -> f(u a v): each (reachable state, transition-monoid
    element) pair of f's machine, each map kept with its first pair."""
    m = alg.ops[f]
    states, witness = ref_reachable_with_witnesses(m)
    monoid = transition_monoid(m)
    pos = {q: i for i, q in enumerate(m.states)}
    found = {}
    for q in states:
        for g in monoid:
            table = tuple(m.out[g.table[pos[m.delta[(q, a)]]]] for a in alg.elements)
            if table not in found:
                found[table] = Translation(table, ((f, witness[q], g.witness),))
    return tuple(found.values())


def monoid_translation_walk(alg: RegularAlgebra):
    """The translation walk over the monoid-listed elementary translations,
    all of them taken before the first step."""
    gens = [(e.table, e.provenance) for f in alg.sigma for e in monoid_elementary_translations(alg, f)]
    pos = {a: i for i, a in enumerate(alg.elements)}
    ident = Translation(tuple(alg.elements), ())
    found = {ident.table}
    queue = deque([ident])
    yield ident
    while queue:
        p = queue.popleft()
        at = [pos[b] for b in p.table]
        for step, provenance in gens:
            table = tuple(map(step.__getitem__, at))
            if table not in found:
                found.add(table)
                tr = Translation(table, p.provenance + provenance)
                queue.append(tr)
                yield tr


# ---------------------------------------------------------------------------
# Seeded random generators


def random_table(rng: random.Random) -> SymbolTable:
    ops = ("f", "g")[: rng.randint(1, 2)]
    leaves = ("x", "y")[: rng.randint(0, 2)]
    return SymbolTable(ops, leaves)


def random_machine(rng: random.Random, elements, max_states=3) -> MooreMachine:
    n = rng.randint(1, max_states)
    states = tuple(f"s{i}" for i in range(n))
    delta = {(q, a): states[rng.randrange(n)] for q in states for a in elements}
    out = {q: elements[rng.randrange(len(elements))] for q in states}
    return MooreMachine(states, tuple(elements), states[0], delta, out)


def random_algebra(rng: random.Random, sigma, max_elements=3, max_states=3):
    elements = tuple(str(i) for i in range(rng.randint(1, max_elements)))
    ops = {f: random_machine(rng, elements, max_states) for f in sigma}
    return RegularAlgebra(elements, tuple(sigma), ops)


def random_recognizer(rng: random.Random) -> Recognizer:
    table = random_table(rng)
    alg = random_algebra(rng, table.operators)
    valuation = {x: rng.choice(alg.elements) for x in table.leaves}
    finals = frozenset(a for a in alg.elements if rng.random() < 0.5)
    return trim(Recognizer(alg, table, valuation, finals))


def untrimmed_recognizer(rng, n, max_states, table=None):
    """A recognizer over an n-element carrier, not trimmed; its table, when
    not given, has one or two operators and zero to two leaves."""
    if table is None:
        table = SymbolTable(("f", "g")[: rng.randint(1, 2)], ("x", "y")[: rng.randint(0, 2)])
    elements = tuple(str(i) for i in range(n))
    ops = {f: random_machine(rng, elements, max_states) for f in table.operators}
    alg = RegularAlgebra(elements, table.operators, ops)
    valuation = {x: rng.choice(elements) for x in table.leaves}
    finals = frozenset(a for a in elements if rng.random() < 0.5)
    return Recognizer(alg, table, valuation, finals)


def random_tree(rng: random.Random, table: SymbolTable, max_size: int):
    singles = [leaf(x) for x in table.leaves] + [op(f) for f in table.operators]
    if max_size <= 1 or rng.random() < 0.3:
        return rng.choice(singles)
    f = rng.choice(table.operators)
    budget = rng.randint(1, max_size - 1)
    children = []
    while budget > 0 and len(children) < 4:
        child_size = rng.randint(1, budget)
        children.append(random_tree(rng, table, child_size))
        budget -= child_size
    return op(f, children)


def random_gmorphism(rng: random.Random, src=None, dst=None) -> TermGMorphism:
    src = src or random_table(rng)
    dst = dst or random_table(rng)
    iota = {f: rng.choice(dst.operators) for f in src.operators}
    alpha = {x: random_tree(rng, dst, rng.randint(1, 4)) for x in src.leaves}
    return TermGMorphism(src, dst, iota, alpha)
