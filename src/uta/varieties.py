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
from functools import partial, reduce
from operator import or_

from .algebra import RegularAlgebra, Translation, _class_algebra, _refine, translation_walk
from .horizon import MooreMachine, _state_walk, reachable_with_witnesses
from .partition import element_label
from .recognizer import (
    Recognizer,
    RecognizerError,
    _least_trees,
    _order_or_cycle,
    _PumpingGraph,
    _trim,
    complement,
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
    abstraction_key,
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


def _context_of_translation(provenance, value_trees) -> Tree:
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


def _separating_context(alg, finals, a, b, value_trees) -> Tree:
    """A context whose plugging distinguishes the elements a and b of an
    algebra whose accepting set ``finals`` is disjunctive: a syntactic
    algebra, named (``RegularAlgebra``) or as the class machines of
    ``algebra._class_algebra``.  ``value_trees[x]`` is a tree of value x.

    Breadth-first search over ordered carrier pairs from (a, b), stopping
    at the first pair the finals split, after at most |carrier|^2 pairs.
    The edges of a pair (x, y) come, per operator f and reachable state q
    (u its witness word), from a breadth-first search over state pairs from
    (delta(q, x), delta(q, y)): one reached by v gives f(u x v), f(u y v).
    So each pair is found at its least (f, q, v), with the provenance the
    monoid's breadth-first walk first reaches it by.  A state pair met
    before, with all it leads to, gives no new pair, so each operator's
    state pairs are searched once in all: O(|A|^2 * sum_f reach_f + sum_f
    |Q_f|^2 * |A|) steps, and no transition monoid is listed.
    """
    if (a in finals) != (b in finals):
        return HOLE_LEAF
    # per operator: each state pair met, with its word from the start it was met from
    walks = [(f, alg.ops[f], *reachable_with_witnesses(alg.ops[f]), {}) for f in alg.sigma]
    words = {(a, b): ()}
    queue = deque([(a, b)])
    while queue:
        pair = x, y = queue.popleft()
        for f, m, states, witness, seen in walks:
            cx, cy, out = m.columns[x], m.columns[y], m.out
            for q in states:
                for (p1, p2), v in _state_walk(m, (cx[q], cy[q]), seen):
                    nxt = out[p1], out[p2]
                    if nxt not in words:
                        words[nxt] = words[pair] + ((f, witness[q], v),)
                        if (nxt[0] in finals) != (nxt[1] in finals):
                            return _context_of_translation(words[nxt], value_trees)
                        if nxt[0] != nxt[1]:  # an equal pair leads to equal pairs only
                            queue.append(nxt)
    raise RecognizerError("no separating context: finals not disjunctive")


def _bits(mask: int) -> list:
    """The members of a bitset, least first."""
    members = []
    while mask:
        members.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return members


def _pairs_reached(m, rel) -> list:
    """Per state q1 of the int machine m, the bitset of every q2 such that m
    run against itself over letter pairs (a, b), b in ``rel[a]``, reaches
    (q1, q2).  A worklist keeps the q2s each q1 gained since it was last
    read, so each pair is read once, as one bit; letters with one row of
    rel share the image of those q2s.  No words are built."""
    rows, kinds = m.rows, {}
    kind = [kinds.setdefault(row, len(kinds)) for row in rel]
    # images[k][q2]: the states the letters of the k-th distinct row lead q2 to
    images = [[reduce(or_, [1 << row[b] for b in bs]) for row in rows] for bs in map(_bits, kinds)]
    reached, fresh, work = [1] + [0] * (len(rows) - 1), [1] + [0] * (len(rows) - 1), [0]  # (start, start)
    while work:
        q1 = work.pop()
        gained, fresh[q1] = _bits(fresh[q1]), 0
        moved = [reduce(or_, map(image.__getitem__, gained)) for image in images]
        for t, k in zip(rows[q1], kind):
            new = moved[k] & ~reached[t]
            if new:
                if not fresh[t]:
                    work.append(t)
                reached[t] |= new
                fresh[t] |= new
    return reached


def _definite_chain(calg) -> tuple:
    """The shrinking relations R_1, R_2, ... on the classes of a syntactic
    algebra (``algebra._class_algebra``), where R_j relates the values of
    any two trees whose top j levels agree; ``R_j[a]`` is the bitset of the
    b with (a, b) in R_j.  R_1 pairs the outputs of each operator's machine
    (a depth-1 segment fixes the root symbol only).  For j >= 2, two trees
    share a depth-j segment iff they are the same leaf or carry the same
    operator and arity with childwise shared depth-(j-1) segments: each
    machine run against itself over R_(j-1) letter pairs captures that.

    Returns (levels, outcome) with levels[j] = R_j (index 0 unused), and
    outcome ("diagonal", k) for the least k with R_k trivial, or ("stable",
    j) for the least j with R_(j+1) = R_j, which every later level repeats.
    """
    diagonal = [1 << a for a in calg.elements]
    rel = diagonal[:]
    for m in calg.ops.values():
        outs = reduce(or_, [1 << o for o in m.out])
        for o in m.out:
            rel[o] |= outs
    levels: list = [None, rel]
    while rel != diagonal:
        nxt = diagonal[:]
        for m in calg.ops.values():
            for o, pairs in zip(m.out, _pairs_reached(m, rel)):
                nxt[o] |= reduce(or_, [1 << m.out[q] for q in _bits(pairs)], 0)
        if nxt == rel:
            return levels, ("stable", len(levels) - 1)
        levels.append(rel := nxt)
    return levels, ("diagonal", len(levels) - 1)


def _pair_provenance(calg, levels, pair, level) -> list:
    """Per level j from ``level`` down, the provenance of each pair that
    ``_pair_trees`` reads to realize ``pair`` at ``level``, as a chain with
    words finds it first: at j = 1, ("sym", f, u, v) for the first operator
    f with both outputs (u, v their first witness words); above, ("step", f,
    word) for the first state pair with these outputs that f's machine
    meets against itself over the sorted pairs of R_(j-1); else ("diag",
    a).  One walk per operator and level, until all pairs there are found."""
    prov: list = [None] * (level + 1)
    need = {pair}
    for j in range(level, 0, -1):
        got: dict = {}
        rel = levels[min(j - 1, len(levels) - 1)]
        letters = [(a, b) for a in calg.elements for b in _bits(rel[a])] if j > 1 else None
        for f in calg.sigma:
            m = calg.ops[f]
            if j == 1:
                states, witness = reachable_with_witnesses(m)
                first: dict = {}
                for q in states:
                    first.setdefault(m.out[q], witness[q])
                got.update({(a, b): ("sym", f, first[a], first[b])
                            for a, b in need - got.keys() if a in first and b in first})
                continue
            for (q1, q2), word in _state_walk((m, m), (m.start, m.start), {}, letters):
                if len(got) == len(need):
                    break
                if (m.out[q1], m.out[q2]) in need:
                    got.setdefault((m.out[q1], m.out[q2]), ("step", f, word))
        got.update({(a, b): ("diag", a) for a, b in need - got.keys()})  # pairs on the diagonal
        prov[j] = got
        need = {p for kind, *rest in got.values() if kind == "step" for p in rest[1]}
    return prov


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


def _class_trees(rec: Recognizer, theta) -> list:
    """Each class of theta's least tree in (size, rendering) order, theta a
    congruence on the elements rec's trees reach: the least of its
    elements' least trees, from one ``_least_trees`` on rec.  A tree has
    one value, so this is the class's least tree in the syntactic
    recognizer, and no quotient is built."""
    least = _least_trees(rec)
    return [min(map(least.__getitem__, b))[2] for b in theta.blocks]


def _membership_counterexample(calg, finals, trees, levels, level) -> tuple[Tree, Tree]:
    """Two trees with equal depth-``level`` top segments and different
    membership: realize the first off-diagonal pair of R_level, then wrap
    both sides in a context separating the two classes (``finals`` the
    accepted classes, ``trees`` each class's least tree)."""
    rel = levels[min(level, len(levels) - 1)]
    a = next(a for a, row in enumerate(rel) if row != 1 << a)
    offender = a, _bits(rel[a] & ~(1 << a))[0]
    prov = _pair_provenance(calg, levels, offender, level)
    s, t = _pair_trees(prov, trees, offender, level)
    p = _separating_context(calg, finals, *offender, trees)
    return plug(p, s), plug(p, t)


def decide_definite(rec: Recognizer, k: int | None = None) -> VarietyVerdict:
    """Least depth whose top segment determines membership, exactly.

    With ``k`` given, answers whether that particular depth suffices; the
    parameter of a yes is always the least sufficient depth.  A no carries
    two trees that share the relevant top segment yet differ by
    membership (for the unparameterized query, at the depth where the
    chain stabilized; no greater depth can help from there on).

    The chain runs on the int machines of one ``_refine``.  A *no* reads
    its trees off the same classes: the least tree of each
    (``_class_trees``) and, past depth 0, a separating context on the
    class machines; no quotient is named.
    """
    if k is not None and k < 0:
        raise ValueError("Definite needs k >= 0")
    alg = rec.algebra
    theta, table = _refine(alg, rec.finals.__contains__, rec.valuation.values())
    if theta.block_count <= 1:
        return VarietyVerdict("Def", True, "exact", parameter=0)
    finals = {c for c, b in enumerate(theta.blocks) if b[0] in rec.finals}  # the accepted classes
    if k == 0:
        trees = _class_trees(rec, theta)
        pair = tuple(trees[next(c for c in range(len(trees)) if (c in finals) == side)] for side in (True, False))
        return VarietyVerdict("Def", False, "exact", counterexample=pair, detail="two trees with different membership exist")
    calg = _class_algebra(alg, theta, table)
    levels, (outcome, j) = _definite_chain(calg)
    if outcome == "diagonal":
        if k is None or j <= k:
            return VarietyVerdict("Def", True, "exact", parameter=j)
        detail = f"depth {k} is insufficient; depth {j} is the least"
    else:
        detail = f"chain stabilized above the diagonal at depth {j}"
    s, t = _membership_counterexample(calg, finals, _class_trees(rec, theta), levels, j if k is None else k)
    return VarietyVerdict("Def", False, "exact", counterexample=(s, t), detail=detail)


# ---------------------------------------------------------------------------
# Aperiodicity


def _power_tail(table) -> int | None:
    """Least n with p^(n+1) = p^n for the map p on 0, 1, ... that the table
    lists, or None if iteration enters a proper cycle.  Terminates because
    the powers of a map on a finite set repeat."""
    prev = tuple(range(len(table)))
    seen = {prev}
    n = 0
    while True:
        cur = tuple(map(table.__getitem__, prev))
        if cur == prev:
            return n
        if cur in seen:
            return None
        seen.add(cur)
        prev = cur
        n += 1


def decide_aperiodic(rec: Recognizer) -> VarietyVerdict:
    """Aperiodicity via the translation monoid of the syntactic algebra.

    There, the accepting set is disjunctive and every translation is the
    trace of some context, so "inserting a context n+1 times is always
    indistinguishable from n times" collapses to the pointwise condition
    p^(n+1) = p^n on the unary maps.  The reported index is the largest
    tail over the monoid; a map entering a proper cycle refutes.

    The monoid of the int machines of one ``_refine`` (as ``def`` reads
    them) is walked lazily in ``translation_walk`` order, elementary maps
    included, and a refuting map is named by class only at the end: no
    quotient is built.  A *no* costs only the walk up to the first map with
    a proper cycle; a *yes* visits every translation, which can be
    exponentially many (the problem is PSPACE-complete already for automata
    on words).
    """
    alg = rec.algebra
    theta, table = _refine(alg, rec.finals.__contains__, rec.valuation.values())
    if theta.block_count <= 1:  # one class: the identity is the only translation
        return VarietyVerdict("Ap", True, "exact", parameter=0)
    ia = 0
    for tr in translation_walk(_class_algebra(alg, theta, table)):
        tail = _power_tail(tr.table)
        if tail is None:
            names = [theta.class_name(b[0]) for b in theta.blocks]
            word = lambda w: tuple(map(names.__getitem__, w))  # noqa: E731
            named = Translation(word(tr.table), tuple((f, word(u), word(v)) for f, u, v in tr.provenance))
            return VarietyVerdict("Ap", False, "exact", counterexample=named, detail="translation with a proper cycle")
        ia = max(ia, tail)
    return VarietyVerdict("Ap", True, "exact", parameter=ia)


# ---------------------------------------------------------------------------
# Finite / co-finite


def decide_nil(rec: Recognizer) -> VarietyVerdict:
    """Is the language or its complement finite?  One trim; the complement
    is taken in the trimmed algebra (``trim(complement(rec))`` as data).
    A side whose pumping graph has an order gives a yes with its exact
    member count (``_PumpingGraph.count``), and no member is listed; if
    both have a cycle, the witnesses are ``is_finite``'s on each side.  The
    two sides share one graph's rows, predecessors and least trees."""
    trec, reached, named = _trim(rec)
    cycles, graph = [], None
    for side, detail in ((trec, "finite with"), (complement(trec), "co-finite; complement has")):
        graph = _PumpingGraph(side, reached, named, graph)
        order, cycle = _order_or_cycle(graph.sources)
        if cycle is None:
            return VarietyVerdict("Nil", True, "exact", detail=f"{detail} {graph.count(order)} members")
        cycles.append((graph, cycle))
    return VarietyVerdict(
        "Nil",
        False,
        "exact",
        counterexample=tuple(graph.pump(cycle) for graph, cycle in cycles),
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
        ops[f] = MooreMachine._unchecked(tuple(states) + ("over",), carrier, (), delta, out)
    alg = RegularAlgebra._unchecked(carrier, tuple(table.operators), ops)
    valuation = {x: x if x in nodes else sink for x in table.leaves}
    return Recognizer._unchecked(alg, table, valuation, frozenset(finals))


# ---------------------------------------------------------------------------
# Probe and dispatch


DEFAULT_PROBE_BOUNDS = (7, 3)
_FIRST_CHUNK, _MAX_CHUNK = 16, 1 << 14  # trees a probe works on between two checks
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

    The syntactic values are the classes of the syntactic congruence, read
    off one refinement (``algebra._refine``); no quotient is built.  Each
    tree gets one int code: the state of its label's machine after reading
    its children, numbered as in the refinement's rows, or one code per
    leaf.  Trees are enumerated lazily in (size, rendering) order, each
    size bucket a range of ids (``TreeBank.tree_ids``), and a tree's code is
    one lookup in a step table indexed by the codes of its prefix
    (``TreeBank.prefix``) and of its last child.  Its syntactic value is
    the class of its code's output, compared with that of the first tree
    of its key group.  The buckets are worked on in chunks whose size
    doubles from ``_FIRST_CHUNK`` trees up to ``_MAX_CHUNK``, each checked
    before the next, so the sweep stops soon after the first conflict and
    a refutation costs about the trees up to that one; a yes enumerates
    the whole bound, and a language of one class gets its yes at once.
    The counterexample pairs the first tree of the key group with the
    first tree that broke it.

    The key groups depend on the table, not the language, so the bank and
    each kind's first-of-group ids are shared across calls for as long as
    the table lives (``_probe_bank``).  Over trees an earlier call reached,
    a probe costs one lookup per tree.  Past them its key parts are unions
    and lookups over the children's parts, built for this call only.  A
    finished probe drops the bank's last-bucket renderings (about three
    quarters of its trees); a larger bound makes them again.
    """
    check_bounds(*bounds)
    verdict = partial(VarietyVerdict, kind_name(kind), bounds=tuple(bounds),
                      parameter=getattr(kind, "k", None), low_parameter=getattr(kind, "h", None))
    abstraction_key(HOLE_LEAF, kind)  # a bad kind's ValueError, before any answer
    alg = rec.algebra
    theta, (col, _states, rows, outs, starts, blocks) = _refine(alg, rec.finals.__contains__, rec.valuation.values())
    if theta.block_count <= 1:  # one class: every tree has the same syntactic value
        return verdict(True, "bounded")
    # codes: the machines' states, then one per leaf; value[c] is the column
    # of code c's value, which every row reads
    value = outs + [col[rec.valuation[x]] for x in rec.table.leaves]
    step = [list(map(row.__getitem__, value)) for row in rows]
    cls = list(map(blocks.__getitem__, value))
    atoms = dict(zip(alg.sigma, starts))
    atoms.update(zip(rec.table.leaves, range(len(rows), len(value))))
    bank, firsts_of = _probe_bank(rec.table, bounds[1])
    firsts = firsts_of.get(kind, [])
    keys = groups = None
    labels, kids, prefix = bank.label, bank.kids, bank.prefix
    codes, counterexample, width = [], None, _FIRST_CHUNK
    for size in range(1, bounds[0] + 1):
        bucket, n = bank.tree_ids(size), 0  # ids 0, 1, ... by size: codes[i] is tree i's
        while n < len(bucket):
            chunk = bucket[n:n + width]
            lo, hi = chunk[0], chunk[-1] + 1
            n, width = n + len(chunk), min(2 * width, _MAX_CHUNK)
            if hi > len(firsts):
                if keys is None:
                    keys, groups = KeyParts(bank, kind), {}
                    for j in range(len(firsts)):
                        groups.setdefault(keys.add(j), j)
                    firsts = firsts_of.setdefault(kind, firsts)
                # the bank's own ints: a first-of-group id kept costs no memory
                firsts += [groups.setdefault(keys.add(j), j) for j in chunk[len(firsts) - lo:]]
            if size == 1:
                codes += map(atoms.__getitem__, labels[lo:hi])
            else:
                codes += [step[codes[p]][codes[ks[-1]]] for p, ks in zip(prefix[lo:hi], kids[lo:hi])]
            # the chunk's codes whose class is not their key group's first's
            if [c for c, j in zip(codes[lo:hi], firsts[lo:hi]) if cls[c] != cls[codes[j]]]:
                i = next(i for i in range(lo, hi) if cls[codes[i]] != cls[codes[firsts[i]]])
                counterexample = (bank.tree(firsts[i]), bank.tree(i))
                break
        if counterexample is not None:
            break
    bank.drop_last_texts()
    return verdict(counterexample is None, "bounded" if counterexample is None else "refutation", counterexample=counterexample)


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
