"""Shared fixture recognizers and seeded random generators for the tests."""

from __future__ import annotations

import random
import re
import weakref
from collections import deque
from dataclasses import dataclass, replace
from itertools import combinations, product

from uta import (
    MooreMachine,
    Recognizer,
    RegularAlgebra,
    SymbolTable,
    TermGMorphism,
    Translation,
    Tree,
    leaf,
    op,
    syntactic_of,
    translation_walk,
    trim,
)
from uta import algebra, horizon, recognizer, varieties
from uta.horizon import MachineError, _state_walk, reachable_with_witnesses, state_records
from uta.trees import KeyParts, TreeBank, check_bounds, parse_term, render
from uta.recognizer import RecognizerError, _least_trees
from uta.trees import HOLE_LEAF, plug
from uta.varieties import VarietyVerdict, _context_of_translation, kind_name
from uta.workspace import _PUNCTUATION, _TOKEN, Workspace, WorkspaceError


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
# The machine searches that ``horizon._state_walk`` replaced, kept as referees:
# ``_product_reach`` is the walk over several machines that it absorbed


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


def _product_reach(machines, letters):
    """Breadth-first walk over the state tuples the machines reach together.

    Each letter is a tuple fed componentwise, one entry per machine.  Yields
    ``(states, word, successors)`` in discovery order: the state tuple, its
    shortest word of letters (ties broken by letter order), and its
    successor under each letter, in letter order.
    """
    deltas = [m.delta for m in machines]
    start = tuple(m.start for m in machines)
    words = {start: ()}
    queue = deque([start])
    while queue:
        qs = queue.popleft()
        word = words[qs]
        successors = []
        for letter in letters:
            nxt = tuple(map(dict.__getitem__, deltas, zip(qs, letter)))
            successors.append(nxt)
            if nxt not in words:
                words[nxt] = word + (letter,)
                queue.append(nxt)
        yield qs, word, successors


def ref_word_to(m: MooreMachine, q, target) -> tuple:
    """Shortest word from state q to a state whose output is target, by the
    search above on a copy of the machine started at q."""
    states, words = ref_reachable_with_witnesses(replace(m, start=q))
    return words[next(p for p in states if m.out[p] == target)]


# ---------------------------------------------------------------------------
# The constructions that walked the machines again after one closure, kept
# as referees: the closure found the elements only, and each machine was
# then cut or paired by a breadth-first walk of its own.


def walked_closure(elements, machines, seed) -> tuple:
    """The closed elements in the order of ``elements``: each state keeps
    how many letters it has read, and each (state, letter) step is taken
    once."""
    found = set(seed)
    found.update(m.out[m.start] for m in machines)
    letters = [a for a in elements if a in found]
    reached = [{m.start: 0} for m in machines]  # state -> letters read
    grown = True
    while grown:
        grown = False
        for m, done in zip(machines, reached):
            for q in list(done):
                n = len(letters)
                for a in letters[done[q]:n]:
                    q2 = m.delta[q, a]
                    if q2 not in done:
                        done[q2] = 0
                        grown = True
                        if m.out[q2] not in found:
                            found.add(m.out[q2])
                            letters.append(m.out[q2])
                done[q] = n
    return tuple(a for a in elements if a in found)


def restrict_machine(m: MooreMachine, letters) -> MooreMachine:
    """Sub-machine over a sub-alphabet, cut down to its reachable states."""
    letters = tuple(letters)
    states, _ = ref_reachable_with_witnesses(m, letters)
    delta = {(q, a): m.delta[(q, a)] for q in states for a in letters}
    out = {q: m.out[q] for q in states}
    return MooreMachine(states, letters, m.start, delta, out)


def tuple_product_machine(machines, alphabet) -> MooreMachine:
    """Synchronous product over the states reachable from the paired starts;
    outputs are the tuples of component outputs."""
    machines, alphabet = list(machines), tuple(alphabet)
    states, delta, out = [], {}, {}
    for qs, _, successors in _product_reach(machines, alphabet):
        states.append(qs)
        out[qs] = tuple(m.out[q] for m, q in zip(machines, qs))
        for letter, nxt in zip(alphabet, successors):
            delta[(qs, letter)] = nxt
    return MooreMachine(tuple(states), alphabet, states[0], delta, out)


def walked_subalgebra(alg: RegularAlgebra, subset) -> RegularAlgebra:
    """Restriction to a closed subset, each machine cut by ``restrict_machine``."""
    keep = set(subset)
    sub = tuple(a for a in alg.elements if a in keep)
    if walked_closure(alg.elements, list(alg.ops.values()), sub) != sub:
        raise ValueError("subset is not closed under the operations")
    return RegularAlgebra(sub, alg.sigma, {f: restrict_machine(alg.ops[f], sub) for f in alg.sigma})


def walked_trim(rec: Recognizer) -> Recognizer:
    alg = rec.algebra
    reach = walked_closure(alg.elements, [alg.ops[f] for f in alg.sigma], set(rec.valuation.values()))
    if reach == alg.elements:
        return rec
    ops = {f: restrict_machine(alg.ops[f], reach) for f in alg.sigma}
    return Recognizer(RegularAlgebra(reach, alg.sigma, ops), rec.table, rec.valuation, rec.finals & set(reach))


class _Lookup:
    """A function read as a mapping: ``lookup[key]`` is ``fn(key)``."""

    def __init__(self, fn):
        self.fn = fn

    def __getitem__(self, key):
        return self.fn(key)


class _SideBySide:
    """Two machines run side by side, in the shape the closure reads."""

    def __init__(self, m1: MooreMachine, m2: MooreMachine):
        d1, d2, o1, o2 = m1.delta, m2.delta, m1.out, m2.out
        self.start = m1.start, m2.start
        self.delta = _Lookup(lambda k: (d1[k[0][0], k[1][0]], d2[k[0][1], k[1][1]]))
        self.out = _Lookup(lambda q: (o1[q[0]], o2[q[1]]))


def walked_pair_recognizer(rec1: Recognizer, rec2: Recognizer, accept) -> Recognizer:
    alg1, alg2 = rec1.algebra, rec2.algebra
    sigma = tuple(rec1.table.operators)
    valuation = {x: (rec1.valuation[x], rec2.valuation[x]) for x in rec1.table.leaves}
    pairs = [_SideBySide(alg1.ops[f], alg2.ops[f]) for f in sigma]
    carrier = walked_closure(tuple(product(alg1.elements, alg2.elements)), pairs, valuation.values())
    ops = {f: tuple_product_machine((alg1.ops[f], alg2.ops[f]), carrier) for f in sigma}
    finals = {(a, b) for a, b in carrier if accept(a in rec1.finals, b in rec2.finals)}
    return Recognizer(RegularAlgebra(carrier, sigma, ops), rec1.table, valuation, finals)


def walked_g_product(kappa: dict, algebras) -> RegularAlgebra:
    """The product over the full cartesian carrier, for one or more factors."""
    carrier = tuple(product(*(a.elements for a in algebras)))
    ops = {g: tuple_product_machine([a.ops[f] for f, a in zip(fs, algebras)], carrier)
           for g, fs in kappa.items()}
    return RegularAlgebra(carrier, tuple(kappa), ops)


# ---------------------------------------------------------------------------
# Work counts: each library binding of a function counted or refused


def counted_closures(monkeypatch):
    """The argument tuples of every ``_closure`` call, from either module."""
    calls = []
    inner = algebra._closure

    def count(*args):
        calls.append(args)
        return inner(*args)

    for mod in (algebra, recognizer):
        monkeypatch.setattr(mod, "_closure", count)
    return calls


def counted_namings(monkeypatch):
    """The start of every breadth-first pass over a closure's rows."""
    calls = []
    inner = algebra._breadth_first

    def count(start, *args):
        calls.append(start)
        return inner(start, *args)

    for mod in (algebra, recognizer):
        monkeypatch.setattr(mod, "_breadth_first", count)
    return calls


WALKS = ("_state_walk", "_product_reach", "reachable_with_witnesses")


def refuse_walks(monkeypatch, names=WALKS):
    """Make each named machine walk raise, wherever the library binds it."""

    def refuse(*args):
        raise AssertionError("no machine walk")

    for mod in (horizon, algebra, recognizer, varieties):
        for name in names:
            if name in vars(mod):
                monkeypatch.setattr(mod, name, refuse)


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
# The exact deciders as they ran on the named syntactic recognizer, kept as
# referees: the chain built every level with a walk with words over every
# pair, and ap walked the quotient's translations.  ``srec``, when given, is
# ``syntactic_of(rec)[1]``, made once for several calls.


def walked_definite_chain(srec: Recognizer, min_levels: int = 0):
    """The shrinking relations R_1, R_2, ... on syntactic values, where R_j
    relates the values of any two trees whose top j levels agree.

    R_1 pairs the outputs of each operator's machine (a depth-1 segment
    fixes the root symbol only).  For j >= 2, two trees share a depth-j
    segment iff they are the same leaf or carry the same operator and
    arity with childwise shared depth-(j-1) segments; running each machine
    against itself over R_(j-1) letter pairs captures that exactly.  Every
    relation stores per-pair provenance so witness trees can be rebuilt.

    Returns (levels, outcome) with levels[j] the R_j dict (index 0 unused)
    and outcome ("diagonal", k) for the least k with R_k trivial, or
    ("stable", j) when the chain repeats above the diagonal.  Levels keep
    being produced until min_levels even after stabilizing, because the
    per-level provenance depths differ.
    """
    alg = srec.algebra
    V = alg.elements
    pos = {a: i for i, a in enumerate(V)}
    levels: list = [None]

    r1: dict = {}
    for f in alg.sigma:
        m = alg.ops[f]
        states, witness = reachable_with_witnesses(m)
        out_word: dict = {}
        for q in states:
            out_word.setdefault(m.out[q], witness[q])
        for a, ua in out_word.items():
            for b, ub in out_word.items():
                r1.setdefault((a, b), ("sym", f, ua, ub))
    for a in V:
        r1.setdefault((a, a), ("diag", a))
    levels.append(r1)

    def diagonal(rel):
        return all(a == b for (a, b) in rel)

    stable_at = None
    j = 1
    while True:
        cur = levels[j]
        if diagonal(cur):
            return levels, ("diagonal", j)
        if stable_at is not None and j >= min_levels:
            return levels, ("stable", stable_at)
        pairs = tuple(sorted(cur, key=lambda ab: (pos[ab[0]], pos[ab[1]])))
        nxt: dict = {}
        for f in alg.sigma:
            m = alg.ops[f]
            for (q1, q2), word, _ in _product_reach((m, m), pairs):
                nxt.setdefault((m.out[q1], m.out[q2]), ("step", f, word))
        for a in V:
            nxt.setdefault((a, a), ("diag", a))
        if stable_at is None and set(nxt) == set(cur):
            stable_at = j
        levels.append(nxt)
        j += 1
        if j > len(V) * len(V) + max(min_levels, 0) + 2:
            raise RecognizerError("definiteness chain failed to stabilize")


def least_value_trees(rec: Recognizer) -> dict:
    """Each reachable element's least tree in (size, rendering) order."""
    return {a: t for a, (_, _, t) in _least_trees(rec).items()}


def ref_separating_context(srec: Recognizer, a, b, value_trees: dict) -> Tree:
    """A context whose plugging distinguishes the classes a and b of the
    syntactic recognizer: breadth-first over ordered carrier pairs from (a,
    b), each pair's edges from a breadth-first search over state pairs,
    per operator and reachable state, read through ``delta``; the first
    pair the finals split gives the context."""
    alg, finals = srec.algebra, srec.finals
    if (a in finals) != (b in finals):
        return HOLE_LEAF
    # per operator: each state pair met, with its word from the start it was met from
    walks = [(f, alg.ops[f], *reachable_with_witnesses(alg.ops[f]), {}) for f in alg.sigma]
    words = {(a, b): ()}
    queue = deque([(a, b)])
    while queue:
        pair = x, y = queue.popleft()
        for f, m, states, witness, seen in walks:
            delta, out = m.delta, m.out
            for q in states:
                for (p1, p2), v in _state_walk(m, (delta[q, x], delta[q, y]), seen):
                    nxt = out[p1], out[p2]
                    if nxt not in words:
                        words[nxt] = words[pair] + ((f, witness[q], v),)
                        if (nxt[0] in finals) != (nxt[1] in finals):
                            return _context_of_translation(words[nxt], value_trees)
                        if nxt[0] != nxt[1]:  # an equal pair leads to equal pairs only
                            queue.append(nxt)
    raise RecognizerError("no separating context: finals not disjunctive")


def ref_pair_trees(levels, value_trees, pair, level) -> tuple[Tree, Tree]:
    """Two trees realizing a related value pair, sharing their top ``level``
    segment by construction."""
    prov = levels[level][pair]
    if prov[0] == "diag":
        t = value_trees[prov[1]]
        return t, t
    if prov[0] == "sym":
        _, f, ua, ub = prov
        return (
            op(f, [value_trees[c] for c in ua]),
            op(f, [value_trees[c] for c in ub]),
        )
    _, f, word = prov
    kids = [ref_pair_trees(levels, value_trees, p, level - 1) for p in word]
    return op(f, [s for s, _ in kids]), op(f, [t for _, t in kids])


def ref_membership_counterexample(srec, levels, level) -> tuple[Tree, Tree]:
    """Two trees with equal depth-``level`` top segments and different
    membership: realize the first off-diagonal value pair, then wrap both
    sides in a context separating the two values.  Only a *no* reaches
    here, so only a *no* builds the least trees."""
    value_trees = least_value_trees(srec)
    pos = {a: i for i, a in enumerate(srec.algebra.elements)}
    offender = min(
        (ab for ab in levels[level] if ab[0] != ab[1]),
        key=lambda ab: (pos[ab[0]], pos[ab[1]]),
    )
    s, t = ref_pair_trees(levels, value_trees, offender, level)
    p = ref_separating_context(srec, offender[0], offender[1], value_trees)
    return plug(p, s), plug(p, t)


def ref_decide_definite(rec: Recognizer, k: int | None = None, srec=None) -> VarietyVerdict:
    """Least depth whose top segment determines membership, exactly.

    With ``k`` given, answers whether that particular depth suffices; the
    parameter of a yes is always the least sufficient depth.  A no carries
    two trees that share the relevant top segment yet differ by
    membership (for the unparameterized query, at the depth where the
    chain stabilized; no greater depth can help from there on).
    """
    if k is not None and k < 0:
        raise ValueError("Definite needs k >= 0")
    srec = syntactic_of(rec)[1] if srec is None else srec
    V = srec.algebra.elements
    if len(V) <= 1:
        return VarietyVerdict("Def", True, "exact", parameter=0)
    if k == 0:
        finals = [a for a in V if a in srec.finals]
        non = [a for a in V if a not in srec.finals]
        value_trees = least_value_trees(srec)
        return VarietyVerdict(
            "Def",
            False,
            "exact",
            counterexample=(value_trees[finals[0]], value_trees[non[0]]),
            detail="two trees with different membership exist",
        )
    levels, outcome = walked_definite_chain(srec, min_levels=k or 0)
    if outcome[0] == "diagonal":
        least = outcome[1]
        if k is None or least <= k:
            return VarietyVerdict("Def", True, "exact", parameter=least)
        s, t = ref_membership_counterexample(srec, levels, k)
        return VarietyVerdict(
            "Def",
            False,
            "exact",
            counterexample=(s, t),
            detail=f"depth {k} is insufficient; depth {least} is the least",
        )
    stable = outcome[1]
    level = min(k, len(levels) - 1) if k is not None else stable
    s, t = ref_membership_counterexample(srec, levels, level)
    return VarietyVerdict(
        "Def",
        False,
        "exact",
        counterexample=(s, t),
        detail=f"chain stabilized above the diagonal at depth {stable}",
    )


def ref_power_tail(pos: dict, tr: Translation):
    """Least n with tr^(n+1) = tr^n, or None if iteration enters a proper
    cycle.  Terminates because the powers of a map on a finite set repeat.
    ``pos`` numbers the carrier; powers are iterated on those numbers."""
    step = [pos[b] for b in tr.table]
    prev = tuple(range(len(step)))
    seen = {prev}
    n = 0
    while True:
        cur = tuple(map(step.__getitem__, prev))
        if cur == prev:
            return n
        if cur in seen:
            return None
        seen.add(cur)
        prev = cur
        n += 1


def ref_decide_aperiodic(rec: Recognizer, srec=None) -> VarietyVerdict:
    """Aperiodicity via the translation monoid of the syntactic recognizer.

    There, the accepting set is disjunctive and every translation is the
    trace of some context, so "inserting a context n+1 times is always
    indistinguishable from n times" collapses to the pointwise condition
    p^(n+1) = p^n on the unary maps.  The reported index is the largest
    tail over the monoid; a map entering a proper cycle refutes.

    The monoid is walked lazily in ``translation_walk`` order, elementary
    maps included, so a *no* costs only the walk up to the first map with a
    proper cycle; a *yes* visits every translation, which can be
    exponentially many (the problem is PSPACE-complete already for automata
    on words).
    """
    srec = syntactic_of(rec)[1] if srec is None else srec
    alg = srec.algebra
    pos = {a: i for i, a in enumerate(alg.elements)}
    ia = 0
    for tr in translation_walk(alg):
        tail = ref_power_tail(pos, tr)
        if tail is None:
            return VarietyVerdict(
                "Ap",
                False,
                "exact",
                counterexample=tr,
                detail="translation with a proper cycle",
            )
        ia = max(ia, tail)
    return VarietyVerdict("Ap", True, "exact", parameter=ia)


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


# ---------------------------------------------------------------------------
# The saturation probe as it ran on the syntactic recognizer, kept as the
# referee: each tree kept its label's quotient-machine state as a (row,
# output) record.  It keeps banks and key groups of its own.


_REF_PROBE_BANKS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def ref_saturation_probe(rec: Recognizer, kind, bounds=(7, 3), srec=None) -> VarietyVerdict:
    """Stops at the first tree whose syntactic value differs from its key
    group's first tree's; a tree's state is one transition of the syntactic
    machine from its prefix's, on its last child's value.  ``srec``, when
    given, is ``syntactic_of(rec)[1]``, made once for several calls."""
    check_bounds(*bounds)
    name = kind_name(kind)
    srec = syntactic_of(rec)[1] if srec is None else srec
    banks = _REF_PROBE_BANKS.setdefault(rec.table, {})
    if bounds[1] not in banks:
        banks[bounds[1]] = TreeBank(rec.table, bounds[1]), {}
    bank, firsts_of = banks[bounds[1]]
    firsts = firsts_of.get(kind, [])
    keys = groups = None
    atoms = {f: state_records(m)[m.start] for f, m in srec.algebra.ops.items()}
    atoms.update((x, (None, v)) for x, v in srec.valuation.items())
    labels, kids, prefix = bank.label, bank.kids, bank.prefix
    states, counterexample = [], None
    for i in bank.trees(bounds[0]):
        if i < len(firsts):
            first = firsts[i]
        else:
            if keys is None:
                keys, groups = KeyParts(bank, kind), {}
                for j in range(i):
                    groups.setdefault(keys.add(j), j)
                firsts = firsts_of.setdefault(kind, firsts)
            first = groups.setdefault(keys.add(i), i)
            firsts.append(first)
        ks = kids[i]
        state = states[prefix[i]][0][states[ks[-1]][1]] if ks else atoms[labels[i]]
        states.append(state)
        if states[first][1] != state[1]:
            counterexample = (bank.tree(first), bank.tree(i))
            break
    bank.drop_last_texts()
    return VarietyVerdict(
        name,
        counterexample is None,
        "bounded" if counterexample is None else "refutation",
        bounds=tuple(bounds),
        counterexample=counterexample,
        parameter=getattr(kind, "k", None),
        low_parameter=getattr(kind, "h", None),
    )


# ---------------------------------------------------------------------------
# The workspace loader as it read before it read lists as slices: every token
# taken one call at a time, each paired with its line up front.


def ref_load_workspace_text(text: str, path: str = "<text>") -> Workspace:
    ws = Workspace()
    _ref_load_text(ws, text, path)
    return ws


class _ref_Tokens:
    def __init__(self, text: str, path: str):
        """One ``findall`` per line; the character scan reports a fault."""
        self.path = path
        self.items = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            body = line.split("#", 1)[0]
            tokens = _TOKEN.findall(body)
            if "".join(tokens) == "".join(body.split()):
                self.items += [(tok, lineno) for tok in tokens]
                continue
            pos = 0
            while pos < len(body):
                if body[pos].isspace():
                    pos += 1
                    continue
                m = _TOKEN.match(body, pos)
                if not m:
                    raise WorkspaceError(
                        f"unexpected character {body[pos]!r}", path, lineno
                    )
                self.items.append((m.group(0), lineno))
                pos = m.end()
        self.idx = 0

    def peek(self):
        return self.items[self.idx][0] if self.idx < len(self.items) else None

    def line(self):
        if self.idx < len(self.items):
            return self.items[self.idx][1]
        return self.items[-1][1] if self.items else 1

    def take(self, expected=None):
        if self.idx >= len(self.items):
            raise WorkspaceError(
                f"unexpected end of file (wanted {expected!r})", self.path, self.line()
            )
        tok, line = self.items[self.idx]
        if expected is not None and tok != expected:
            raise WorkspaceError(f"expected {expected!r}, got {tok!r}", self.path, line)
        self.idx += 1
        return tok, line

    def take_name(self, what="name"):
        tok, line = self.take()
        if tok in _PUNCTUATION:
            raise WorkspaceError(f"expected {what}, got {tok!r}", self.path, line)
        return tok, line

    def names_until(self, stops=(";",)):
        names = []
        while self.peek() is not None and self.peek() not in stops:
            if self.peek() == ",":
                self.take(",")
                continue
            names.append(self.take_name()[0])
        return names


def _ref_fields(toks: _ref_Tokens, what="field"):
    """The key and line of each field of a ``{ ... }`` block, braces taken;
    the caller reads the rest of each field."""
    toks.take("{")
    while toks.peek() != "}":
        yield toks.take_name(what)
    toks.take("}")


def _ref_arrows(toks: _ref_Tokens, into: dict, duplicate: str, left, right):
    """Reads the ``left... -> right`` entries of a list up to its ';', which
    is taken, into ``into``, keyed by the left name or the pair of them;
    commas between entries are optional.  ``left`` says what each name
    before the arrow is, ``right`` what the name after it is, or None for
    a term.  A key already in ``into`` raises ``duplicate % key``."""
    while (tok := toks.peek()) != ";":
        if tok == ",":
            toks.take(",")
            continue
        key, line = toks.take_name(left[0])
        if len(left) == 2:
            key = key, toks.take_name(left[1])[0]
        toks.take("->")
        value = toks.take_name(right)[0] if right else _ref_collect_term(toks)
        if key in into:
            raise WorkspaceError(duplicate % key, toks.path, line)
        into[key] = value
    toks.take(";")


def _ref_parse_machine_body(toks: _ref_Tokens, elements, opname, opline):
    """The machine of an ``op`` body; faults found after the body are
    reported at the ``op`` line."""
    states = []
    start = None
    out = {}
    delta = {}
    for key, line in _ref_fields(toks, "machine field"):
        toks.take(":")
        if key == "states":
            states = toks.names_until()
            toks.take(";")
        elif key == "start":
            start = toks.take_name()[0]
            toks.take(";")
        elif key == "out":
            _ref_arrows(toks, out, "duplicate output for state %s", ("state",), "element")
        elif key == "delta":
            _ref_arrows(toks, delta, "duplicate transition (%s, %s)", ("state", "letter"), "state")
        else:
            raise WorkspaceError(f"unknown machine field {key!r}", toks.path, line)
    if not states:
        raise WorkspaceError(f"op {opname}: no states", toks.path, opline)
    if start is None:
        raise WorkspaceError(f"op {opname}: no start state", toks.path, opline)
    for q in states:
        if q not in out:
            raise WorkspaceError(
                f"op {opname}: no output for state {q}", toks.path, opline
            )
        for a in elements:
            if (q, a) not in delta:
                raise WorkspaceError(
                    f"op {opname}: incomplete machine, missing transition ({q}, {a})",
                    toks.path,
                    opline,
                )
    extra = set(delta) - {(q, a) for q in states for a in elements}
    if extra:
        q, a = sorted(extra)[0]
        raise WorkspaceError(
            f"op {opname}: transition ({q}, {a}) uses an unknown state or letter",
            toks.path,
            opline,
        )
    try:
        return MooreMachine(tuple(states), tuple(elements), start, delta, out)
    except MachineError as e:
        raise WorkspaceError(f"op {opname}: {e}", toks.path, opline) from e


def _ref_parse_field_value(toks: _ref_Tokens):
    toks.take(":")
    names = toks.names_until()
    toks.take(";")
    return names


def _ref_parse_reference(toks: _ref_Tokens, where, key, line):
    """The one name a ``key: name;`` field refers to."""
    names = _ref_parse_field_value(toks)
    if len(names) != 1:
        problem = "empty" if not names else f"{len(names)} names in"
        raise WorkspaceError(f"{where}: {problem} {key!r} field", toks.path, line)
    return names[0]


def _ref_collect_term(toks: _ref_Tokens) -> str:
    """Slurp tokens of a term up to the closing ';' back into text."""
    parts = []
    depth = 0
    while True:
        tok = toks.peek()
        if tok is None:
            raise WorkspaceError("unterminated term", toks.path, toks.line())
        if tok == ";" and depth == 0:
            break
        if tok == ",":
            if depth == 0:
                break
            parts.append(tok)
        elif tok == "(":
            depth += 1
            parts.append(tok)
        elif tok == ")":
            depth -= 1
            parts.append(tok)
        else:
            parts.append(tok)
        toks.take()
    return "".join(parts)


def _ref_register(ws_dict, kind, name, value, path, line):
    if name in ws_dict:
        raise WorkspaceError(f"duplicate {kind} name {name!r}", path, line)
    ws_dict[name] = value


def _ref_load_text(ws: Workspace, text: str, path: str):
    toks = _ref_Tokens(text, path)
    while toks.peek() is not None:
        section, line = toks.take_name("section")
        name, _ = toks.take_name(f"{section} name")
        where = f"{section} {name}"
        if section == "symbols":
            operators, leaves = [], []
            for key, kline in _ref_fields(toks):
                values = _ref_parse_field_value(toks)
                if key == "operators":
                    operators = values
                elif key == "leaves":
                    leaves = values
                else:
                    raise WorkspaceError(f"unknown symbols field {key!r}", path, kline)
            try:
                table = SymbolTable(tuple(operators), tuple(leaves))
            except ValueError as e:
                raise WorkspaceError(str(e), path, line) from e
            _ref_register(ws.symbols, "symbols", name, table, path, line)
        elif section == "algebra":
            symref = None
            elements = []
            machines = {}
            for key, kline in _ref_fields(toks):
                if key == "symbols":
                    symref = _ref_parse_reference(toks, where, key, kline)
                elif key == "elements":
                    elements = _ref_parse_field_value(toks)
                elif key == "op":
                    opname, opline = toks.take_name("operator")
                    if not elements:
                        raise WorkspaceError(
                            f"algebra {name}: declare elements before op {opname}",
                            path,
                            opline,
                        )
                    machines[opname] = _ref_parse_machine_body(toks, elements, opname, opline)
                else:
                    raise WorkspaceError(f"unknown algebra field {key!r}", path, kline)
            if symref is None or symref not in ws.symbols:
                raise WorkspaceError(
                    f"algebra {name}: unknown symbols reference {symref!r}", path, line
                )
            table = ws.symbols[symref]
            missing = set(table.operators) - set(machines)
            if missing:
                raise WorkspaceError(
                    f"algebra {name}: no machine for operator {sorted(missing)[0]}",
                    path,
                    line,
                )
            extra = set(machines) - set(table.operators)
            if extra:
                raise WorkspaceError(
                    f"algebra {name}: machine for unknown operator {sorted(extra)[0]}",
                    path,
                    line,
                )
            try:
                alg = RegularAlgebra(tuple(elements), table.operators, machines)
            except ValueError as e:
                raise WorkspaceError(f"algebra {name}: {e}", path, line) from e
            _ref_register(ws.algebras, "algebra", name, alg, path, line)
            ws.algebra_symbols[name] = symref
        elif section == "recognizer":
            algref = None
            valuation = {}
            finals = []
            for key, kline in _ref_fields(toks):
                if key == "algebra":
                    algref = _ref_parse_reference(toks, where, key, kline)
                elif key == "finals":
                    finals = _ref_parse_field_value(toks)
                elif key == "valuation":
                    toks.take(":")
                    _ref_arrows(toks, valuation, "duplicate valuation for %s", ("leaf",), "element")
                else:
                    raise WorkspaceError(
                        f"unknown recognizer field {key!r}", path, kline
                    )
            if algref is None or algref not in ws.algebras:
                raise WorkspaceError(
                    f"recognizer {name}: unknown algebra reference {algref!r}",
                    path,
                    line,
                )
            try:
                rec = Recognizer(
                    ws.algebras[algref],
                    ws.symbols_of_algebra(algref),
                    valuation,
                    frozenset(finals),
                )
            except ValueError as e:
                raise WorkspaceError(f"recognizer {name}: {e}", path, line) from e
            _ref_register(ws.recognizers, "recognizer", name, rec, path, line)
        elif section == "gmorphism":
            src = dst = None
            iota = {}
            alpha_text = {}
            for key, kline in _ref_fields(toks):
                if key == "from":
                    src = _ref_parse_reference(toks, where, key, kline)
                elif key == "to":
                    dst = _ref_parse_reference(toks, where, key, kline)
                elif key == "iota":
                    toks.take(":")
                    _ref_arrows(toks, iota, "duplicate iota for %s", ("operator",), "operator")
                elif key == "alpha":
                    toks.take(":")
                    _ref_arrows(toks, alpha_text, "duplicate alpha for %s", ("leaf",), None)
                else:
                    raise WorkspaceError(
                        f"unknown gmorphism field {key!r}", path, kline
                    )
            if src is None or src not in ws.symbols:
                raise WorkspaceError(
                    f"gmorphism {name}: unknown source table {src!r}", path, line
                )
            if dst is None or dst not in ws.symbols:
                raise WorkspaceError(
                    f"gmorphism {name}: unknown target table {dst!r}", path, line
                )
            src_t, dst_t = ws.symbols[src], ws.symbols[dst]
            try:
                alpha = {
                    x: parse_term(text, dst_t) for x, text in alpha_text.items()
                }
                m = TermGMorphism(src_t, dst_t, iota, alpha)
            except ValueError as e:
                raise WorkspaceError(f"gmorphism {name}: {e}", path, line) from e
            _ref_register(ws.gmorphisms, "gmorphism", name, m, path, line)
        else:
            raise WorkspaceError(f"unknown section {section!r}", path, line)


# ---------------------------------------------------------------------------
# The text evaluator as it read before groups of innermost groups were one
# token: a name or an innermost group written without spaces per token.

_REF_GROUPED_TOKENS_RE = re.compile(
    r"[A-Za-z_][A-Za-z0-9_]*\([A-Za-z0-9_,]*\)|[A-Za-z_][A-Za-z0-9_]*|[(),@]|[^ \t\r\n]"
)


def _ref_group_value(group: str, starts: dict, values: dict):
    head, _, body = group.partition("(")
    state = starts[head]
    for child in body[:-1].split(","):
        state = state[0][values[child]]
    values[group] = state[1]
    return state[1]


def _ref_token_value(tokens: list, starts: dict, values: dict):
    frames = []
    state = None
    i = 0
    while True:
        tok = tokens[i]
        i += 1
        if tokens[i] == "(":
            frames.append(state)
            state = starts[tok]
            i += 1
            continue
        try:
            value = values[tok]
        except KeyError:
            value = _ref_group_value(tok, starts, values)
        while state is not None:
            state = state[0][value]
            tok = tokens[i]
            i += 1
            if tok == ",":
                break
            if tok != ")":
                raise KeyError(tok)
            value = state[1]
            state = frames.pop()
        else:
            break
    if tokens[i] is not None:
        raise KeyError(tokens[i])
    return value


def ref_text_evaluator(rec: Recognizer):
    """``(value, canonical text)`` of term text, each innermost group kept
    by its text; text that is no term goes through ``parse_term``."""
    starts, values = {}, dict(rec.valuation)
    for f in rec.table.operators:
        m = rec.algebra.ops[f]
        starts[f] = state_records(m)[m.start]
        values[f] = m.out[m.start]

    def evaluate(text: str) -> tuple:
        tokens = _REF_GROUPED_TOKENS_RE.findall(text)
        tokens.append(None)
        try:
            return _ref_token_value(tokens, starts, values), "".join(text.split())
        except (KeyError, IndexError):
            pass
        t = parse_term(text, rec.table)
        return recognizer.eval_of(rec, t), render(t)

    return evaluate
