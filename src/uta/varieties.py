"""Decision procedures for structural language classes.

Exact deciders exist for definiteness (least depth whose top segment
determines membership), aperiodicity (no translation cycles, with the
iteration index), and finite/co-finite languages.  The remaining classes
(reverse definite, generalized definite, locally testable, piecewise
testable) get a sound refutation-plus-bounded-verification probe: a "no"
is a concrete counterexample and therefore final, while a "yes" is
evidence up to the stated enumeration bounds and is labeled as such.

Definiteness works on pairs of carrier elements and machine states and
never lists the translation monoid.  Only aperiodicity walks it, which
may take exponentially many steps (aperiodicity is PSPACE-complete
already for automata on words, Cho & Huynh 1991), and it stops at the
first map with a proper cycle.
"""

from __future__ import annotations

import weakref
from collections import deque
from dataclasses import dataclass

from .algebra import (
    RegularAlgebra,
    Translation,
    elementary_translations,
    translation_walk,
)
from .horizon import MooreMachine, _product_reach, reachable_with_witnesses, state_records
from .partition import element_label
from .recognizer import (
    Finite,
    Recognizer,
    RecognizerError,
    complement,
    is_finite,
    minimal_value_trees,
    syntactic_of,
)
from .trees import (
    HOLE_LEAF,
    Definite,
    GenDefinite,
    KeyParts,
    LocTestable,
    PwTestable,
    ReverseDefinite,
    SymbolTable,
    Tree,
    TreeBank,
    check_bounds,
    compose,
    op,
    plug,
    render,
    subtrees,
    validate_tree,
)


@dataclass(frozen=True)
class Aperiodic:
    """No context can be iterated to cycle membership."""


@dataclass(frozen=True)
class Nilpotent:
    """The language or its complement is finite."""


def kind_name(kind) -> str:
    return {
        Definite: "Def",
        ReverseDefinite: "RDef",
        GenDefinite: "GDef",
        LocTestable: "Loc",
        PwTestable: "Pwt",
        Aperiodic: "Ap",
        Nilpotent: "Nil",
    }[type(kind)]


@dataclass(frozen=True)
class VarietyVerdict:
    """Outcome of a decision; ``method`` records how trustworthy it is.

    ``exact`` verdicts are final in both directions.  ``refutation`` is a
    final no backed by a concrete counterexample.  ``bounded`` is a yes
    verified only on the enumerated universe recorded in ``bounds``.
    """

    kind: str
    holds: bool
    method: str
    parameter: int | None = None
    low_parameter: int | None = None
    bounds: tuple | None = None
    counterexample: object = None
    detail: str = ""

    def to_json(self) -> dict:
        d: dict = {
            "kind": self.kind,
            "verdict": "yes" if self.holds else "no",
            "method": self.method,
        }
        if self.parameter is not None:
            d["ia" if self.kind == "Ap" else "k"] = self.parameter
        if self.low_parameter is not None:
            d["h"] = self.low_parameter
        if self.bounds is not None:
            d["max_size"], d["max_arity"] = self.bounds
        ce = self.counterexample
        if (
            isinstance(ce, tuple)
            and len(ce) == 2
            and all(isinstance(t, Tree) for t in ce)
        ):
            d["counterexample"] = [render(t) for t in ce]
        elif isinstance(ce, Translation):
            d["counterexample"] = {
                "translation": [element_label(x) for x in ce.table],
                "steps": [
                    {
                        "op": f,
                        "u": [element_label(a) for a in u],
                        "v": [element_label(b) for b in v],
                    }
                    for f, u, v in ce.provenance
                ],
            }
        if self.detail:
            d["detail"] = self.detail
        return d


# ---------------------------------------------------------------------------
# Definiteness


def _context_of_translation(provenance, value_trees: dict) -> Tree:
    """A context realizing a translation, rebuilt from its provenance word:
    each step (f, u, v) wraps the hole as f(u-trees, @, v-trees)."""
    ctx = HOLE_LEAF
    for f, u, v in provenance:
        step = op(
            f,
            [value_trees[a] for a in u] + [HOLE_LEAF] + [value_trees[a] for a in v],
        )
        ctx = compose(ctx, step)
    return ctx


def _separating_context(srec: Recognizer, a, b, value_trees: dict) -> Tree:
    """A context whose plugging distinguishes the classes a and b of the
    syntactic recognizer; exists because its finals are disjunctive.

    Breadth-first search over ordered carrier pairs from (a, b), the edges
    being the elementary translations in operator order; it stops at the
    first pair the finals split, after at most |carrier|^2 pairs.  Pairs are
    found in the order in which the translation monoid's breadth-first
    enumeration first reaches them, with the same provenance, so the context
    is the one the first separating translation of that enumeration gives.
    """
    alg, finals = srec.algebra, srec.finals
    if (a in finals) != (b in finals):
        return HOLE_LEAF
    pos = {x: i for i, x in enumerate(alg.elements)}
    gens = [
        (e.table, e.provenance)
        for f in alg.sigma
        for e in elementary_translations(alg, f)
    ]
    words = {(a, b): ()}
    queue = deque([(a, b)])
    while queue:
        pair = queue.popleft()
        i, j = pos[pair[0]], pos[pair[1]]
        for table, provenance in gens:
            nxt = (table[i], table[j])
            if nxt not in words:
                words[nxt] = words[pair] + provenance
                if (nxt[0] in finals) != (nxt[1] in finals):
                    return _context_of_translation(words[nxt], value_trees)
                queue.append(nxt)
    raise RecognizerError("no separating context: finals not disjunctive")


def _definite_chain(srec: Recognizer, min_levels: int = 0):
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


def _pair_trees(levels, value_trees, pair, level) -> tuple[Tree, Tree]:
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
    kids = [_pair_trees(levels, value_trees, p, level - 1) for p in word]
    return op(f, [s for s, _ in kids]), op(f, [t for _, t in kids])


def _membership_counterexample(srec, levels, value_trees, level) -> tuple[Tree, Tree]:
    """Two trees with equal depth-``level`` top segments and different
    membership: realize the first off-diagonal value pair, then wrap both
    sides in a context separating the two values."""
    pos = {a: i for i, a in enumerate(srec.algebra.elements)}
    offender = min(
        (ab for ab in levels[level] if ab[0] != ab[1]),
        key=lambda ab: (pos[ab[0]], pos[ab[1]]),
    )
    s, t = _pair_trees(levels, value_trees, offender, level)
    p = _separating_context(srec, offender[0], offender[1], value_trees)
    return plug(p, s), plug(p, t)


def decide_definite(rec: Recognizer, k: int | None = None) -> VarietyVerdict:
    """Least depth whose top segment determines membership, exactly.

    With ``k`` given, answers whether that particular depth suffices; the
    parameter of a yes is always the least sufficient depth.  A no carries
    two trees that share the relevant top segment yet differ by
    membership (for the unparameterized query, at the depth where the
    chain stabilized; no greater depth can help from there on).
    """
    if k is not None and k < 0:
        raise ValueError("Definite needs k >= 0")
    _res, srec = syntactic_of(rec)
    V = srec.algebra.elements
    value_trees = minimal_value_trees(srec)
    if len(V) <= 1:
        return VarietyVerdict("Def", True, "exact", parameter=0)
    if k == 0:
        finals = [a for a in V if a in srec.finals]
        non = [a for a in V if a not in srec.finals]
        return VarietyVerdict(
            "Def",
            False,
            "exact",
            counterexample=(value_trees[finals[0]], value_trees[non[0]]),
            detail="two trees with different membership exist",
        )
    levels, outcome = _definite_chain(srec, min_levels=k or 0)
    if outcome[0] == "diagonal":
        least = outcome[1]
        if k is None or least <= k:
            return VarietyVerdict("Def", True, "exact", parameter=least)
        s, t = _membership_counterexample(srec, levels, value_trees, k)
        return VarietyVerdict(
            "Def",
            False,
            "exact",
            counterexample=(s, t),
            detail=f"depth {k} is insufficient; depth {least} is the least",
        )
    stable = outcome[1]
    level = min(k, len(levels) - 1) if k is not None else stable
    s, t = _membership_counterexample(srec, levels, value_trees, level)
    return VarietyVerdict(
        "Def",
        False,
        "exact",
        counterexample=(s, t),
        detail=f"chain stabilized above the diagonal at depth {stable}",
    )


# ---------------------------------------------------------------------------
# Aperiodicity


def _power_tail(pos: dict, tr: Translation):
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


def decide_aperiodic(rec: Recognizer) -> VarietyVerdict:
    """Aperiodicity via the translation monoid of the syntactic recognizer.

    There, the accepting set is disjunctive and every translation is the
    trace of some context, so "inserting a context n+1 times is always
    indistinguishable from n times" collapses to the pointwise condition
    p^(n+1) = p^n on the unary maps.  The reported index is the largest
    tail over the monoid; a map entering a proper cycle refutes.

    The monoid is walked lazily in ``translation_walk`` order, so a *no*
    costs only the walk up to the first map with a proper cycle; a *yes*
    visits every translation, which can be exponentially many (the problem
    is PSPACE-complete already for automata on words).
    """
    _res, srec = syntactic_of(rec)
    alg = srec.algebra
    pos = {a: i for i, a in enumerate(alg.elements)}
    ia = 0
    for tr in translation_walk(alg):
        tail = _power_tail(pos, tr)
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
# Finite / co-finite


def decide_nil(rec: Recognizer) -> VarietyVerdict:
    v1 = is_finite(rec)
    if isinstance(v1, Finite):
        return VarietyVerdict(
            "Nil", True, "exact", detail=f"finite with {len(v1.members)} members"
        )
    v2 = is_finite(complement(rec))
    if isinstance(v2, Finite):
        return VarietyVerdict(
            "Nil",
            True,
            "exact",
            detail=f"co-finite; complement has {len(v2.members)} members",
        )
    return VarietyVerdict(
        "Nil",
        False,
        "exact",
        counterexample=(v1.witness, v2.witness),
        detail="both the language and its complement pump",
    )


def nilpotent_recognizer_for_finite(member_trees, table: SymbolTable) -> Recognizer:
    """Recognizer for an explicitly listed finite language.

    The carrier holds the renderings of the members' distinct subtrees in
    (size, rendering) order, plus one absorbing element ``⊥``.  A leaf is
    its rendering if it is a member subtree and ``⊥`` otherwise.  The
    machine of ``f`` is a trie over the child words of the ``f``-nodes among
    those subtrees: it emits the rendering of ``f(w)`` when that is a
    member subtree and ``⊥`` otherwise, and a word off the trie or one
    reading ``⊥`` falls into the absorbing state ``"over"``.  So every tree
    that is not a member subtree evaluates to ``⊥``, and the algebra is
    nilpotent of degree at most one past the largest member.

    The build is quadratic in the members' total size: a complete machine
    has one transition per trie state and carrier element.
    """
    sink = "⊥"
    nodes: dict = {}  # subtree rendering -> size, each after its children
    built: dict = {f: {} for f in table.operators}  # f -> child word -> f(word)
    finals = set()
    for t in member_trees:
        validate_tree(table, t)
        for s in reversed(list(subtrees(t))):
            r, kids = render(s), tuple(map(render, s.children))
            if r not in nodes:
                nodes[r] = 1 + sum(nodes[c] for c in kids)
                if not s.is_leaf:
                    built[s.label][kids] = r
        finals.add(r)  # the last subtree listed is t itself
    carrier = tuple(sorted(nodes, key=lambda r: (nodes[r], r))) + (sink,)
    pos = {a: i for i, a in enumerate(carrier)}
    ops = {}
    for f in table.operators:
        prefixes = {w[:i] for w in built[f] for i in range(len(w) + 1)} | {()}
        states = sorted(prefixes, key=lambda w: (len(w), [pos[a] for a in w]))
        delta = {
            (q, a): q + (a,) if q + (a,) in prefixes else "over"
            for q in states
            for a in carrier
        }
        delta.update((("over", a), "over") for a in carrier)
        out = {q: built[f].get(q, sink) for q in states}
        out["over"] = sink
        ops[f] = MooreMachine(tuple(states) + ("over",), carrier, (), delta, out)
    alg = RegularAlgebra(carrier, tuple(table.operators), ops)
    valuation = {x: x if x in nodes else sink for x in table.leaves}
    return Recognizer(alg, table, valuation, frozenset(finals))


# ---------------------------------------------------------------------------
# Probe and dispatch


DEFAULT_PROBE_BOUNDS = (7, 3)
_PROBE_BANKS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _probe_bank(table: SymbolTable, max_arity) -> tuple[TreeBank, dict]:
    """The probes' shared trees over one table and arity bound: one
    ``TreeBank`` and, per kind, ``firsts`` with ``firsts[i]`` the id of the
    first tree in tree i's key group.  Both depend on the alphabet only, so
    every recognizer over the table reads them; each probe extends
    ``firsts`` past what earlier probes reached.  ``_PROBE_BANKS`` holds
    them per arity bound, keyed weakly by the first table object seen: they
    live as long as that table, and are released with it."""
    banks = _PROBE_BANKS.setdefault(table, {})
    if max_arity not in banks:
        banks[max_arity] = TreeBank(table, max_arity), {}
    return banks[max_arity]


def saturation_probe(rec: Recognizer, kind, bounds=DEFAULT_PROBE_BOUNDS) -> VarietyVerdict:
    """Group every enumerated tree by its abstraction key and compare the
    syntactic values inside each group.

    Two key-equal trees with different syntactic values witness that the
    kind's relation does not refine the language's distinguishability
    relation: an unconditional no.  A clean sweep is only evidence up to
    the bounds and is reported as such.  Bounds holding no tree raise
    ``ValueError``.

    Trees are enumerated lazily in (size, rendering) order and worked on
    bottom-up by id: a tree's machine state is one transition from its
    prefix's (``TreeBank.prefix``) on its last child's value, and its value
    is that state's output.  The sweep stops at the first conflict, so a
    refutation costs only the trees up to that one; a yes enumerates the
    whole bound.  The counterexample pairs the first tree of the key group
    with the tree that broke it.

    The key groups depend on the table, not the language, so the bank and
    each kind's first-of-group ids are shared across calls for as long as
    the table lives (``_probe_bank``).  Over trees an earlier call reached,
    a probe costs one transition per tree.  Past them its key parts are
    unions and lookups over the children's parts, built for this call
    only.  A finished probe drops the bank's last-bucket renderings (about
    three quarters of its trees); a larger bound makes them again.
    """
    check_bounds(*bounds)
    name = kind_name(kind)
    _res, srec = syntactic_of(rec)
    bank, firsts_of = _probe_bank(rec.table, bounds[1])
    firsts = firsts_of.get(kind, [])
    keys = groups = None
    # Outputs and leaf values lie in the carrier, which every machine reads
    # whole (``RegularAlgebra`` and ``Recognizer`` check both): no row misses.
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


def decide_variety(rec: Recognizer, kind, bounds=None) -> VarietyVerdict:
    """Route to the exact decider when one exists, else to the probe."""
    if isinstance(kind, Definite):
        return decide_definite(rec, kind.k)
    if isinstance(kind, Aperiodic):
        return decide_aperiodic(rec)
    if isinstance(kind, Nilpotent):
        return decide_nil(rec)
    if isinstance(kind, (ReverseDefinite, GenDefinite, LocTestable, PwTestable)):
        return saturation_probe(rec, kind, bounds or DEFAULT_PROBE_BOUNDS)
    raise ValueError(f"unknown kind {kind!r}")
