"""Recognizers of unranked tree languages.

A recognizer is an algebra, a valuation of the leaf alphabet, and a set
of accepting carrier elements; it accepts the trees whose value lands in
that set.  Besides membership this module provides trimming, boolean
combinations, context quotients, inverse images under tree morphisms,
the syntactic recognizer, and exact emptiness / finiteness / equivalence
decisions with concrete witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    RegularAlgebra,
    derived_algebra,
    eval_term,
    g_product,
    generated_closure,
    subalgebra,
)
from .horizon import MooreMachine
from .syntactic import SyntacticResult, syntactic_algebra
from .trees import (
    HOLE,
    SymbolTable,
    TermGMorphism,
    Tree,
    enumerate_trees,
    height,
    is_context,
    leaf,
    render,
    size,
    subtrees,
    validate_tree,
)


class RecognizerError(ValueError):
    pass


@dataclass(frozen=True)
class Recognizer:
    algebra: RegularAlgebra
    table: SymbolTable
    valuation: dict
    finals: frozenset

    def __post_init__(self):
        object.__setattr__(self, "valuation", dict(self.valuation))
        object.__setattr__(self, "finals", frozenset(self.finals))
        if set(self.table.operators) != set(self.algebra.sigma):
            raise RecognizerError("table operators differ from the algebra's")
        if set(self.valuation) != set(self.table.leaves):
            raise RecognizerError("valuation must cover exactly the leaf alphabet")
        carrier = set(self.algebra.elements)
        for x, a in self.valuation.items():
            if a not in carrier:
                raise RecognizerError(f"valuation of {x!r} outside the carrier")
        if not self.finals <= carrier:
            raise RecognizerError("accepting set outside the carrier")


def eval_of(rec: Recognizer, t: Tree):
    validate_tree(rec.table, t)
    return eval_term(rec.algebra, rec.valuation, t)


def membership(rec: Recognizer, t: Tree) -> bool:
    return eval_of(rec, t) in rec.finals


def eval_context(rec: Recognizer, p: Tree, hole_value):
    """Value of a context when its hole is preassigned a carrier element."""
    return eval_term(rec.algebra, {**rec.valuation, HOLE: hole_value}, p)


def reachable_carrier(rec: Recognizer) -> tuple:
    """The elements some tree actually evaluates to."""
    return generated_closure(
        rec.algebra, rec.algebra.sigma, set(rec.valuation.values())
    )


def trim(rec: Recognizer) -> Recognizer:
    """Restrict the algebra to the reachable carrier; the language is kept,
    and every remaining element is the value of some tree."""
    reach = reachable_carrier(rec)
    if tuple(reach) == rec.algebra.elements:
        return rec
    alg = subalgebra(rec.algebra, reach)
    return Recognizer(alg, rec.table, rec.valuation, rec.finals & set(reach))


def complement(rec: Recognizer) -> Recognizer:
    return Recognizer(
        rec.algebra, rec.table, rec.valuation, set(rec.algebra.elements) - rec.finals
    )


def _check_same_table(rec1: Recognizer, rec2: Recognizer):
    if set(rec1.table.operators) != set(rec2.table.operators) or set(
        rec1.table.leaves
    ) != set(rec2.table.leaves):
        raise RecognizerError("recognizers use different symbol tables")


def _pair_recognizer(rec1: Recognizer, rec2: Recognizer, finals) -> Recognizer:
    kappa = {f: (f, f) for f in rec1.table.operators}
    alg = g_product(kappa, [rec1.algebra, rec2.algebra])
    valuation = {
        x: (rec1.valuation[x], rec2.valuation[x]) for x in rec1.table.leaves
    }
    return Recognizer(alg, rec1.table, valuation, finals)


def intersect(rec1: Recognizer, rec2: Recognizer) -> Recognizer:
    _check_same_table(rec1, rec2)
    finals = {
        (a, b)
        for a in rec1.algebra.elements
        for b in rec2.algebra.elements
        if a in rec1.finals and b in rec2.finals
    }
    return _pair_recognizer(rec1, rec2, finals)


def union(rec1: Recognizer, rec2: Recognizer) -> Recognizer:
    _check_same_table(rec1, rec2)
    finals = {
        (a, b)
        for a in rec1.algebra.elements
        for b in rec2.algebra.elements
        if a in rec1.finals or b in rec2.finals
    }
    return _pair_recognizer(rec1, rec2, finals)


def context_quotient(rec: Recognizer, p: Tree) -> Recognizer:
    """Recognizer of the trees t with p(t) accepted: keep the algebra and
    valuation, accept the elements the context maps into the old finals."""
    validate_tree(rec.table, p, allow_hole=True)
    if not is_context(p):
        raise RecognizerError("context must contain exactly one hole")
    finals = {
        a for a in rec.algebra.elements if eval_context(rec, p, a) in rec.finals
    }
    return Recognizer(rec.algebra, rec.table, rec.valuation, finals)


def inverse_gmorphism_image(rec: Recognizer, m: TermGMorphism) -> Recognizer:
    """Recognizer of the trees whose morphism image is accepted."""
    if set(m.dst.operators) != set(rec.table.operators) or set(m.dst.leaves) != set(
        rec.table.leaves
    ):
        raise RecognizerError("morphism does not land in the recognizer's table")
    alg = derived_algebra(m.iota, rec.algebra)
    valuation = {
        x: eval_term(rec.algebra, rec.valuation, m.alpha[x]) for x in m.src.leaves
    }
    return Recognizer(alg, m.src, valuation, rec.finals)


def syntactic_of(rec: Recognizer) -> tuple[SyntacticResult, Recognizer]:
    """The minimal recognizer: trim, then divide out everything no context
    observes.  The returned recognizer accepts the same language and its
    accepting set is disjunctive in the quotient."""
    t = trim(rec)
    res = syntactic_algebra(t.algebra, t.finals)
    rec2 = Recognizer(
        res.algebra,
        t.table,
        {x: res.morphism[t.valuation[x]] for x in t.table.leaves},
        res.finals_image,
    )
    return res, rec2


def theta_class_recognizer(rec: Recognizer, t: Tree) -> Recognizer:
    """Recognizer of all trees no context can tell apart from t."""
    _res, srec = syntactic_of(rec)
    cls = eval_of(srec, t)
    return Recognizer(srec.algebra, srec.table, srec.valuation, frozenset({cls}))


def is_empty(rec: Recognizer) -> bool:
    return not (set(reachable_carrier(rec)) & rec.finals)


# ---------------------------------------------------------------------------
# Smallest members


def minimal_value_trees(rec: Recognizer) -> dict:
    """For every reachable element, a smallest tree evaluating to it.

    Fixpoint of size relaxations: leaves seed the map, and each machine is
    relaxed Bellman-Ford style over words of already-valued elements.  Ties
    break toward the lexicographically smaller rendering, so the result is
    deterministic.
    """
    alg = rec.algebra
    best: dict = {}

    def better(cost_tree, incumbent):
        if incumbent is None:
            return True
        return (cost_tree[0], render(cost_tree[1])) < (
            incumbent[0],
            render(incumbent[1]),
        )

    for x in sorted(rec.table.leaves):
        cand = (1, leaf(x))
        if better(cand, best.get(rec.valuation[x])):
            best[rec.valuation[x]] = cand
    changed = True
    while changed:
        changed = False
        for f in alg.sigma:
            m = alg.ops[f]
            # cheapest letter word into each state, over currently valued letters
            dist: dict = {m.start: (0, ())}
            improved = True
            while improved:
                improved = False
                for q in m.states:
                    if q not in dist:
                        continue
                    dq, wq = dist[q]
                    for a in alg.elements:
                        if a not in best:
                            continue
                        cand = (dq + best[a][0], wq + (a,))
                        q2 = m.delta[(q, a)]
                        if q2 not in dist or cand < dist[q2]:
                            dist[q2] = cand
                            improved = True
            for q, (d, w) in dist.items():
                tree = Tree(f, tuple(best[a][1] for a in w))
                cand = (1 + d, tree)
                if better(cand, best.get(m.out[q])):
                    best[m.out[q]] = cand
                    changed = True
    return {a: t for a, (_, t) in best.items()}


def min_member(rec: Recognizer):
    """A smallest accepted tree, or None; canonical (size, rendering) order
    is guaranteed whenever the minimum size is small enough to enumerate."""
    witnesses = minimal_value_trees(rec)
    accepted = [witnesses[a] for a in rec.finals if a in witnesses]
    if not accepted:
        return None
    best = min(accepted, key=lambda t: (size(t), render(t)))
    s = size(best)
    if s <= 7:
        for t in enumerate_trees(rec.table, s):
            if membership(rec, t):
                return t
    return best


# ---------------------------------------------------------------------------
# Finiteness


@dataclass(frozen=True)
class Finite:
    members: tuple


@dataclass(frozen=True)
class Infinite:
    witness: Tree
    reason: str


def _bound_violation_recognizer(rec: Recognizer, h_bound: int, w_bounds: dict) -> Recognizer:
    """Recognizer of trees of height >= h_bound or with an f-node of arity
    >= w_bounds[f].  The algebra tracks (height capped at h_bound, sticky
    arity-overflow flag); each machine accumulates the running maximum
    child height and counts letters up to its own arity bound."""
    table = rec.table
    carrier = tuple((h, fl) for h in range(h_bound + 1) for fl in (0, 1))
    ops = {}
    for f in table.operators:
        wf = w_bounds[f]
        states = [
            (mh, fl, c)
            for mh in range(-1, h_bound + 1)
            for fl in (0, 1)
            for c in range(wf + 1)
        ]
        delta = {}
        out = {}
        for st in states:
            mh, fl, c = st
            for (h, bflag) in carrier:
                delta[(st, (h, bflag))] = (
                    max(mh, h),
                    fl | bflag,
                    min(c + 1, wf),
                )
            out[st] = (min(mh + 1, h_bound), 1 if (fl or c >= wf) else 0)
        ops[f] = MooreMachine(tuple(states), carrier, (-1, 0, 0), delta, out)
    alg = RegularAlgebra(carrier, tuple(table.operators), ops)
    finals = {
        (h, fl) for (h, fl) in carrier if h >= h_bound or fl == 1
    }
    return Recognizer(alg, table, {x: (0, 0) for x in table.leaves}, finals)


def size_at_least_recognizer(table: SymbolTable, s: int) -> Recognizer:
    """Recognizer of all trees with at least s nodes (size capped at s)."""
    carrier = tuple(range(1, s + 1))
    ops = {}
    for f in table.operators:
        states = tuple(range(0, s + 1))  # running size sum, capped
        delta = {(c, v): min(c + v, s) for c in states for v in carrier}
        out = {c: min(c + 1, s) for c in states}
        ops[f] = MooreMachine(states, carrier, 0, delta, out)
    alg = RegularAlgebra(carrier, tuple(table.operators), ops)
    return Recognizer(alg, table, {x: 1 for x in table.leaves}, frozenset({s}))


def is_finite(rec: Recognizer):
    """Exact finiteness decision with witnesses.

    A language is infinite iff it contains a tree of height at least the
    reachable-carrier size, or an f-node of arity at least the f-machine's
    state count: such a tree pumps (repeat an equal-valued subtree along a
    root path, or repeat a loop infix of the children word, duplicating
    the subtrees under it) without leaving the language.  Violation is
    decided exactly by intersecting with a bound recognizer; a Finite
    verdict then lists every member.
    """
    trec = trim(rec)
    h_bound = len(trec.algebra.elements)
    w_bounds = {f: len(trec.algebra.ops[f].states) for f in trec.algebra.sigma}
    violation = _bound_violation_recognizer(trec, h_bound, w_bounds)
    inter = intersect(trec, violation)
    if not is_empty(inter):
        witness = min_member(inter)
        reasons = []
        if height(witness) >= h_bound:
            reasons.append(f"height {height(witness)} >= {h_bound}")
        for sub in subtrees(witness):
            if not sub.is_leaf and len(sub.children) >= w_bounds[sub.label]:
                reasons.append(
                    f"{sub.label}-node of arity {len(sub.children)} >= {w_bounds[sub.label]}"
                )
                break
        return Infinite(witness, "; ".join(reasons))
    # finite: find the least size bound with nothing at or above it
    s = 1
    while not is_empty(intersect(trec, size_at_least_recognizer(trec.table, s))):
        s += 1
        if s > 4096:
            raise RecognizerError("runaway size bound in finiteness check")
    max_arity = max(max(w_bounds.values()) - 1, 1)
    members = tuple(
        t for t in enumerate_trees(trec.table, s - 1, max_arity) if membership(trec, t)
    )
    return Finite(members)


# ---------------------------------------------------------------------------
# Equivalence


def symmetric_difference(rec1: Recognizer, rec2: Recognizer) -> Recognizer:
    return union(
        intersect(rec1, complement(rec2)), intersect(complement(rec1), rec2)
    )


def equivalent(rec1: Recognizer, rec2: Recognizer):
    """Exact language equality; returns (equal, counterexample tree or None)."""
    _check_same_table(rec1, rec2)
    diff = symmetric_difference(rec1, rec2)
    if is_empty(diff):
        return True, None
    return False, min_member(diff)
