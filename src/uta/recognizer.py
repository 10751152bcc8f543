"""Recognizers of unranked tree languages.

A recognizer is an algebra, a valuation of the leaf alphabet, and a set
of accepting carrier elements; it accepts the trees whose value lands in
that set.  Besides membership this module provides trimming, boolean
combinations, context quotients, inverse images under tree morphisms,
the syntactic recognizer, and exact emptiness / finiteness / equivalence
decisions with concrete witnesses.
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass, replace
from graphlib import CycleError, TopologicalSorter

from .algebra import (
    RegularAlgebra,
    derived_algebra,
    eval_term,
    generated_closure,
    subalgebra,
)
from .horizon import (
    MooreMachine,
    _product_reach,
    reachable_with_witnesses,
    state_records,
    tuple_product_machine,
)
from .syntactic import SyntacticResult, syntactic_algebra
from .trees import (
    HOLE,
    SymbolTable,
    TermError,
    TermGMorphism,
    Tree,
    _tokenize,
    enumerate_trees,
    height,
    is_context,
    leaf,
    parse_term,
    render,
    size,
    sort_trees,
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


def _token_value(tokens: list, starts: dict, atoms: dict):
    """Value of the term the tokens spell (end marker None); KeyError or
    IndexError on an unknown or misplaced token or a letter with no row.
    Each open node is a state of its machine; its parent reads a finished
    child at once."""
    frames = []  # the states of the enclosing open nodes
    state = None  # the state of the innermost open node
    i = 0
    while True:
        tok = tokens[i]
        i += 1
        if tokens[i] == "(":
            frames.append(state)
            state = starts[tok]
            i += 1
            continue
        value = atoms[tok]
        # a finished node: its parent reads it, closing every node it ends
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


def text_evaluator(rec: Recognizer):
    """A function from term text to ``(value, canonical text)``, equal to
    ``(eval_of(rec, t), render(t))`` for ``t = parse_term(text, rec.table)``
    but read in one pass over the tokens, with no tree built: each machine
    state is a (row, output) pair whose row maps a letter to the next state,
    and the canonical text is the tokens joined.  Text that is no term over
    the table goes through ``parse_term`` and ``eval_of``, so every error is
    theirs."""
    starts, atoms = {}, dict(rec.valuation)
    for f in rec.table.operators:
        m = rec.algebra.ops[f]
        starts[f] = state_records(m)[m.start]
        atoms[f] = m.out[m.start]

    def evaluate(text: str) -> tuple:
        try:
            tokens = _tokenize(text)
            tokens.append(None)
            value = _token_value(tokens, starts, atoms)
        except (TermError, KeyError, IndexError):
            pass  # no term: the reference path raises its own error
        else:
            tokens.pop()
            return value, "".join(tokens)
        t = parse_term(text, rec.table)
        return eval_of(rec, t), render(t)

    return evaluate


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


def _pair_recognizer(rec1: Recognizer, rec2: Recognizer, accept) -> Recognizer:
    """Product of two recognizers over the pairs some tree evaluates to.

    Starts from the paired valuation and closes it under each operator by
    walking that operator's machine pair over the pairs found so far, until
    no new output pair appears: no unreachable pair is built (on-the-fly
    product construction).  The carrier keeps the cartesian order of the
    factor carriers; a pair (a, b) is accepting when
    ``accept(a in F1, b in F2)``.
    """
    _check_same_table(rec1, rec2)
    alg1, alg2 = rec1.algebra, rec2.algebra
    sigma = tuple(rec1.table.operators)
    pos1 = {a: i for i, a in enumerate(alg1.elements)}
    pos2 = {b: i for i, b in enumerate(alg2.elements)}

    def cartesian(pair):
        return pos1[pair[0]], pos2[pair[1]]

    valuation = {
        x: (rec1.valuation[x], rec2.valuation[x]) for x in rec1.table.leaves
    }
    reached = set(valuation.values())
    grown = True
    while grown:
        grown = False
        letters = tuple(reached)
        for f in sigma:
            m1, m2 = alg1.ops[f], alg2.ops[f]
            for (q1, q2), _, _ in _product_reach((m1, m2), letters):
                pair = (m1.out[q1], m2.out[q2])
                if pair not in reached:
                    reached.add(pair)
                    grown = True
    carrier = tuple(sorted(reached, key=cartesian))
    ops = {
        f: tuple_product_machine((alg1.ops[f], alg2.ops[f]), carrier) for f in sigma
    }
    finals = {
        (a, b) for a, b in carrier if accept(a in rec1.finals, b in rec2.finals)
    }
    return Recognizer(RegularAlgebra(carrier, sigma, ops), rec1.table, valuation, finals)


def intersect(rec1: Recognizer, rec2: Recognizer) -> Recognizer:
    return _pair_recognizer(rec1, rec2, operator.and_)


def union(rec1: Recognizer, rec2: Recognizer) -> Recognizer:
    return _pair_recognizer(rec1, rec2, operator.or_)


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
    deterministic.  Each candidate is rendered once and keeps its rendering.
    """
    alg = rec.algebra
    best: dict = {}  # element -> (size, rendering, tree)

    def offer(a, cand) -> bool:
        incumbent = best.get(a)
        if incumbent is None or cand[:2] < incumbent[:2]:
            best[a] = cand
            return True
        return False

    for x in sorted(rec.table.leaves):
        offer(rec.valuation[x], (1, x, leaf(x)))
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
                tree = Tree(f, tuple(best[a][2] for a in w))
                if offer(m.out[q], (1 + d, render(tree), tree)):
                    changed = True
    return {a: t for a, (_, _, t) in best.items()}


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


def _word_to(m: MooreMachine, q, target) -> tuple:
    """Shortest word (ties by alphabet order) from state q to a state whose
    output is target; callers ask only for targets q leads to."""
    states, words = reachable_with_witnesses(replace(m, start=q))
    return words[next(p for p in states if m.out[p] == target)]


class _PumpingGraph:
    """The graph whose cycles pump the language of a trimmed recognizer.

    An element is *useful* when it is the value of a subtree of some
    accepted tree: it is final, or a child of a useful element, that is,
    some reachable state q of some machine f reads it into a state that
    leads to a state with a useful output.  States that lead to a useful
    output are useful too.  The graph has a node ``(None, a)`` per useful
    element a and a node ``(f, q)`` per useful state q of f's machine, and
    maps each node to the nodes its trees are built from: a state to the
    states and the letters that lead into it (all useful, as it is), an
    element to the useful states that output it.  A cycle through states
    alone pumps the arity of an f-node, a cycle through an element pumps
    the height; without a cycle every member has bounded height and arity.
    """

    def __init__(self, trec: Recognizer):
        alg = self.alg = trec.algebra
        self.rec = trec
        self.words, self.pred, by_out = {}, {}, {}
        for f in alg.sigma:
            m = alg.ops[f]
            states, self.words[f] = reachable_with_witnesses(m)
            pred = self.pred[f] = {q: [] for q in states}
            outs = by_out[f] = {}
            for q in states:
                outs.setdefault(m.out[q], []).append(q)
                for a in alg.elements:
                    pred[m.delta[(q, a)]].append((q, a))
        # useful[a]: None for a final, else (f, q, b): reading a from state
        # q of f leads to a state with output b, and b was useful first.
        self.useful = {a: None for a in alg.elements if a in trec.finals}
        # good[f][q]: a useful output that state q leads to.
        good = self.good = {f: {} for f in alg.sigma}
        queue = deque(self.useful)
        while queue:
            b = queue.popleft()
            for f in alg.sigma:
                stack = [q for q in by_out[f].get(b, ()) if q not in good[f]]
                good[f].update(dict.fromkeys(stack, b))
                while stack:
                    for q, a in self.pred[f][stack.pop()]:
                        if q not in good[f]:
                            good[f][q] = b
                            stack.append(q)
                        if a not in self.useful:
                            self.useful[a] = (f, q, b)
                            queue.append(a)
        self.sources = {
            (None, b): [(f, s) for f in alg.sigma for s in by_out[f].get(b, ())]
            for b in self.useful
        }
        for f in alg.sigma:
            for s in good[f]:
                self.sources[(f, s)] = list(dict.fromkeys(
                    n for q, a in self.pred[f][s] for n in ((f, q), (None, a))
                ))

    def members(self, order) -> tuple:
        """Every accepted tree, built along an acyclic graph: the trees of
        each useful element and the child words of each useful state,
        children before parents."""
        alg, rec = self.alg, self.rec
        built: dict = {}  # element node: its trees; state node: its child words
        for node in order:
            f, x = node
            if f is None:
                trees = [leaf(y) for y in sorted(rec.table.leaves) if rec.valuation[y] == x]
                for g, s in self.sources[node]:
                    trees.extend(Tree(g, kids) for kids in built[(g, s)])
                built[node] = trees
            else:
                words = [()] if x == alg.ops[f].start else []
                for q, a in self.pred[f][x]:
                    words.extend(w + (t,) for w in built[(f, q)] for t in built[(None, a)])
                built[node] = words
        accepted = [t for b in alg.elements if b in rec.finals for t in built[(None, b)]]
        return sort_trees(accepted)

    def pump(self, cycle) -> Tree:
        """An accepted tree that pumps the cycle (its nodes, each built from
        the one before) past criterion 9's bounds
        (arity at least the machine's state count, or height at least the
        carrier size), plugged into contexts up its value's useful chain."""
        alg = self.alg
        value = minimal_value_trees(self.rec)

        def node(f, head, sub, tail):
            return Tree(f, tuple(value[a] for a in head) + sub + tuple(value[a] for a in tail))

        def letter(f, q, s):
            return next(a for p, a in self.pred[f][s] if p == q)

        pairs = list(zip(cycle, cycle[1:] + cycle[:1]))
        if all(f is not None for f, _ in cycle):
            f, q = cycle[0]
            m = alg.ops[f]
            loop = tuple(letter(f, n[1], n2[1]) for n, n2 in pairs)
            b = self.good[f][q]
            head, tail = self.words[f][q], _word_to(m, q, b)
            reps = max(1, -(-(len(m.states) - len(head) - len(tail)) // len(loop)))
            tree = node(f, head + loop * reps, (), tail)
        else:
            k = next(i for i, (f, _) in enumerate(cycle) if f is None)
            pairs = pairs[k:] + pairs[:k]
            steps = []  # (f, head, tail): one level of context per child-of edge
            for (f, x), (g, s) in pairs:
                if f is None:
                    q = next(q for q, a in self.pred[g][s] if a == x)
                    steps.append((g, self.words[g][q], []))
                elif g is not None:
                    steps[-1][2].append(letter(f, x, s))
            b = cycle[k][1]
            tree = value[b]
            while height(tree) < len(alg.elements):
                for g, head, tail in steps:
                    tree = node(g, head, (tree,), tail)
        while self.useful[b] is not None:
            f, q, b2 = self.useful[b]
            m = alg.ops[f]
            tree = node(f, self.words[f][q], (tree,), _word_to(m, m.delta[(q, b)], b2))
            b = b2
        return tree


def is_finite(rec: Recognizer):
    """Exact finiteness decision with witnesses, in time polynomial in the
    carrier and machine sizes.

    The language is infinite iff the pumping graph of the trimmed
    recognizer has a cycle (see ``_PumpingGraph``); the witness pumps that
    cycle until the tree has height at least the trimmed carrier size or
    an f-node of arity at least the f-machine's state count, inside an
    accepted tree.  It is a pumped member, not the smallest one past
    those bounds.  A Finite verdict lists every member in (size, rendering)
    order, built by value, so its cost follows the members' total size.
    """
    trec = trim(rec)
    graph = _PumpingGraph(trec)
    try:
        order = list(TopologicalSorter(graph.sources).static_order())
    except CycleError as err:
        witness = graph.pump(err.args[1][:-1])
    else:
        return Finite(graph.members(order))
    h_bound = len(trec.algebra.elements)
    w_bounds = {f: len(trec.algebra.ops[f].states) for f in trec.algebra.sigma}
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


# ---------------------------------------------------------------------------
# Equivalence


def equivalent(rec1: Recognizer, rec2: Recognizer):
    """Exact language equality; returns (equal, counterexample tree or None).

    One reachable pair product accepts the pairs where exactly one side
    accepts; every pair in it is the value of some tree, so the languages
    are equal iff it accepts nothing.
    """
    diff = _pair_recognizer(rec1, rec2, operator.ne)
    if not diff.finals:
        return True, None
    return False, min_member(diff)
