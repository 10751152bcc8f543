"""Recognizers of unranked tree languages.

A recognizer is an algebra, a valuation of the leaf alphabet, and a set
of accepting carrier elements; it accepts the trees whose value lands in
that set.  Besides membership this module provides trimming, boolean
combinations, context quotients, inverse images under tree morphisms,
the syntactic recognizer, and exact emptiness / finiteness / equivalence
decisions with concrete witnesses.
"""

from __future__ import annotations

import heapq
import operator
import re
import sys
from collections import deque
from dataclasses import dataclass
from itertools import count, product

from .algebra import RegularAlgebra, _closure, _Product, _row_machine, derived_algebra, eval_term, generated_closure
from .horizon import MooreMachine, _breadth_first, _state_walk, state_records
from .syntactic import SyntacticResult, _syntactic
from .trees import (
    HOLE,
    SymbolTable,
    TermGMorphism,
    Tree,
    height,
    is_context,
    leaf,
    parse_term,
    render,
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


def _group_value(group: str, starts: dict, values: dict):
    """Value of a group ``f(...)`` read off its text, kept in ``values``
    under that text: its children are all names (an innermost group) or all
    innermost groups, each read from ``values`` or worked out in turn.
    KeyError on a head that is no operator (or a token that is no group) or
    a child that is no name of the table."""
    head, _, body = group.partition("(")
    state = starts[head]
    if "(" in body:
        # the pattern checked the shape: every child ends at its "),"
        for child in body[:-2].split("),"):
            child += ")"
            state = state[0][values[child] if child in values else _group_value(child, starts, values)]
    else:
        for child in body[:-1].split(","):
            state = state[0][values[child]]
    values[group] = state[1]
    return state[1]


def _token_value(tokens: list, starts: dict, values: dict):
    """Value of the term the tokens spell (end marker None); KeyError or
    IndexError on an unknown or misplaced token or a letter with no row.
    Each open node is a state of its machine; its parent reads a finished
    child at once.  A name or a group written without spaces is one token,
    its value read from ``values`` (names first, groups kept there once
    read)."""
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
        value = values[tok] if tok in values else _group_value(tok, starts, values)
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


# A name, or a group written without spaces as one token: an innermost
# group, or a group whose children are all innermost groups; else any other
# character but a space, which no term holds.  Each name is matched once.
# Python 3.11's possessive runs cut the same tokens as plain ones (3.10 has
# only those) but save no retry points: findall on the seed-12 benchmark
# corpus takes 112 in place of 150 µs per XML file, 337 in place of 367 per
# boolean file.
_RUN = "*+" if sys.version_info >= (3, 11) else "*"
_NAME_RUN = rf"[A-Za-z_][A-Za-z0-9_]{_RUN}"
_INNERMOST = rf"{_NAME_RUN}\([A-Za-z0-9_,]{_RUN}\)"
_GROUPED_TOKENS_RE = re.compile(
    rf"{_NAME_RUN}(?:\((?:[A-Za-z0-9_,]{_RUN}\)|{_INNERMOST}(?:,{_INNERMOST}){_RUN}\)))?|[^ \t\r\n]"
)


def text_evaluator(rec: Recognizer):
    """A function from term text to ``(value, canonical text)``, equal to
    ``(eval_of(rec, t), render(t))`` for ``t = parse_term(text, rec.table)``
    but read in one pass over the tokens, with no tree built: each machine
    state is a (row, output) pair whose row maps a letter to the next state,
    and the canonical text is the text without its spaces.  A group written
    without spaces, innermost (``f(a,b)``) or of innermost groups
    (``g(f(a),f(b))``), is one token, and its value is kept by its text for
    the life of the function, so a group seen before costs one lookup.
    Every character but a space lands in some token, and one that is in no
    term fails the lookups; text that is no term over the table goes through
    ``parse_term`` and ``eval_of``, so every error is theirs."""
    starts, values = {}, dict(rec.valuation)
    for f in rec.table.operators:
        m = rec.algebra.ops[f]
        starts[f] = state_records(m)[m.start]
        values[f] = m.out[m.start]

    def evaluate(text: str) -> tuple:
        tokens = _GROUPED_TOKENS_RE.findall(text)
        tokens.append(None)
        try:
            value = _token_value(tokens, starts, values)
        except (KeyError, IndexError):
            pass  # no term: the reference path raises its own error
        else:
            # any other space would be a token, so only " \t\r\n" can be left
            if " " in text or "\t" in text or "\r" in text or "\n" in text:
                text = "".join(text.split())
            return value, text
        t = parse_term(text, rec.table)
        return eval_of(rec, t), render(t)

    return evaluate


def eval_context(rec: Recognizer, p: Tree, hole_value):
    """Value of a context when its hole is preassigned a carrier element."""
    return eval_term(rec.algebra, {**rec.valuation, HOLE: hole_value}, p)


def reachable_carrier(rec: Recognizer) -> tuple:
    """The elements some tree actually evaluates to."""
    return generated_closure(rec.algebra, rec.algebra.sigma, set(rec.valuation.values()))


def _trim(rec: Recognizer) -> tuple:
    """``trim``, the rows its closure gives each machine's reached states,
    and each machine's breadth-first naming over them if it cut (else None)."""
    alg = rec.algebra
    reach, reached = _closure(alg.elements, [alg.ops[f] for f in alg.sigma], rec.valuation.values())
    if reach == alg.elements:
        return rec, reached, None
    named = [_breadth_first(alg.ops[f].start, rows.__getitem__, reach) for f, rows in zip(alg.sigma, reached)]
    ops = {f: _row_machine(alg.ops[f], rows, reach, words) for f, rows, words in zip(alg.sigma, reached, named)}
    alg = RegularAlgebra(reach, alg.sigma, ops)
    return Recognizer(alg, rec.table, rec.valuation, rec.finals & set(reach)), reached, named


def trim(rec: Recognizer) -> Recognizer:
    """Restrict the algebra to the reachable carrier, from one closure, each
    machine read off its rows (``algebra._row_machine``); the language is
    kept, and every remaining element is the value of some tree."""
    return _trim(rec)[0]


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

    One ``_closure`` of the paired valuation under each operator's two
    machines side by side finds those pairs, in the cartesian order of the
    factor carriers; no unreachable pair is built (on-the-fly product
    construction).  Each operator's machine, the synchronous product over
    them, is read off the same closure's rows (``algebra._row_machine``),
    with no second walk; a pair (a, b) is accepting when ``accept(a in F1,
    b in F2)``.
    """
    _check_same_table(rec1, rec2)
    alg1, alg2 = rec1.algebra, rec2.algebra
    sigma = tuple(rec1.table.operators)
    valuation = {x: (rec1.valuation[x], rec2.valuation[x]) for x in rec1.table.leaves}
    pairs = [_Product((alg1.ops[f], alg2.ops[f])) for f in sigma]
    carrier, reached = _closure(tuple(product(alg1.elements, alg2.elements)), pairs, valuation.values())
    ops = {f: _row_machine(m, rows, carrier) for f, m, rows in zip(sigma, pairs, reached)}
    finals = {(a, b) for a, b in carrier if accept(a in rec1.finals, b in rec2.finals)}
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
    """The minimal recognizer: the values of trees modulo what no context
    observes, from one closure of the valuation and one refinement on the
    original machines (``syntactic._syntactic``); no trimmed algebra is
    built.  It accepts the same language; its accepting set is disjunctive."""
    res = _syntactic(rec.algebra, rec.finals, rec.valuation.values())
    valuation = {x: res.morphism[rec.valuation[x]] for x in rec.table.leaves}
    return res, Recognizer(res.algebra, rec.table, valuation, res.finals_image)


def theta_class_recognizer(rec: Recognizer, t: Tree) -> Recognizer:
    """Recognizer of all trees no context can tell apart from t."""
    _res, srec = syntactic_of(rec)
    cls = eval_of(srec, t)
    return Recognizer(srec.algebra, srec.table, srec.valuation, frozenset({cls}))


def is_empty(rec: Recognizer) -> bool:
    return not rec.finals or not (set(reachable_carrier(rec)) & rec.finals)


# ---------------------------------------------------------------------------
# Smallest members


def _node(f: str, d: int, text: str, kids: tuple) -> tuple:
    """(size, rendering, tree) of an f-node over a word (see ``_least_trees``)."""
    return d + 1, f + "(" + text[:-1] + ")" if kids else f, Tree(f, kids)


def _least_trees(rec: Recognizer, stop=frozenset()) -> dict:
    """Each reachable element's least tree in (size, rendering) order, as
    ``element -> (size, rendering, tree)``, up to the first of ``stop``.

    One priority search (Knuth's generalization of Dijkstra's algorithm)
    over elements and (operator, state) nodes, keyed by (size, text), from
    the leaves and each start state's empty word.  A state settles with its
    least word, and its output gets the tree ``f(`` + the text without its
    last comma + ``)``, so no tree is rendered; an element settles with its
    least tree, and a word reads it as one piece ``r,`` (r its rendering).
    Each (state, element) step is pushed once, when both ends have settled.

    The keys are valid: no step lowers a key, and appending a piece keeps
    the order of two words.  Names sort above ``(``, ``)`` and ``,``, so
    the pieces are prefix-free: two texts of equal size first differ inside
    a piece, so a least word extends least words and a least tree has least
    children.  A key fixes its word or tree, so the order in which equal
    keys leave the heap changes no result.
    """
    machines, tick = list(rec.algebra.ops.items()), count()
    least: dict = {}
    words = [{} for _ in machines]  # per machine: state -> (size, text, children)
    # (size, text, tick, machine index or None for an element, node, children or tree)
    heap = [(1, x, next(tick), None, rec.valuation[x], leaf(x)) for x in rec.table.leaves]
    heap += [(0, "", next(tick), i, m.start, ()) for i, (_, m) in enumerate(machines)]
    heapq.heapify(heap)
    while heap:
        d, text, _, i, node, kids = heapq.heappop(heap)
        if i is None:
            if node in least:
                continue
            least[node] = (d, text, kids)
            if node in stop:
                break
            steps = [(dq + d, tq + text + ",", j, m.delta[q, node], kq + (kids,))
                     for j, (_, m) in enumerate(machines) for q, (dq, tq, kq) in words[j].items()]
        else:
            (f, m), found = machines[i], words[i]
            if node in found:
                continue
            found[node] = (d, text, kids)
            size, rendering, tree = _node(f, d, text, kids)
            steps = [(size, rendering, None, m.out[node], tree)]
            steps += [(d + s, text + r + ",", i, m.delta[node, a], kids + (t,))
                      for a, (s, r, t) in least.items()]
        for d2, text2, j, node2, kids2 in steps:
            if node2 not in (least if j is None else words[j]):
                heapq.heappush(heap, (d2, text2, next(tick), j, node2, kids2))
    return least


def min_member(rec: Recognizer):
    """The least accepted tree in (size, rendering) order, or None; ``_least_trees`` stops at it."""
    least = _least_trees(rec, rec.finals)
    return next((least[a][2] for a in rec.finals if a in least), None)


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
    return next(word for (p,), word in _state_walk(m, (q,), {}) if m.out[p] == target)


def _order_or_cycle(sources: dict) -> tuple:
    """``(order, None)`` with every node after its sources, or ``(None,
    cycle)``: nodes each a source of the next, the last one of the first.
    One iterative depth-first search along source-to-node edges, from the
    nodes in the order ``TopologicalSorter(sources)`` of the standard
    library files them, so the cycle is the one its ``CycleError`` names
    (``err.args[1][:-1]``); the order is the reversed finishing order."""
    succ: dict = {}
    for node, srcs in sources.items():
        succ.setdefault(node, [])
        for s in srcs:
            succ.setdefault(s, []).append(node)
    finished: dict = {}  # in finishing order
    for root in succ:
        if root in finished:
            continue
        path, walks = {root: 0}, [iter(succ[root])]  # path: node -> depth, root first
        while walks:
            for node in walks[-1]:
                if node in path:
                    return None, list(path)[path[node]:]
                if node not in finished:
                    path[node] = len(path)
                    walks.append(iter(succ[node]))
                    break
            else:
                walks.pop()
                finished[path.popitem()[0]] = None
    return list(finished)[::-1], None


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
    States, witness words and predecessors are read off ``reached``, the
    rows of the closure that trimmed it (``_trim``), with the namings the
    trim made when it cut (``named``), or lent by ``base``, a graph over the
    same algebra and valuation, with its least trees.
    """

    def __init__(self, trec: Recognizer, reached, named=None, base: "_PumpingGraph | None" = None):
        alg = self.alg = trec.algebra
        self.rec = trec
        if base is not None:
            self.words, self.pred, self.by_out, self.least = base.words, base.pred, base.by_out, base.least
        else:
            self.words, self.pred, self.by_out, self.least = {}, {}, {}, {}
            for i, (f, rows) in enumerate(zip(alg.sigma, reached)):
                m = alg.ops[f]
                states = self.words[f] = named[i] if named else _breadth_first(m.start, rows.__getitem__, alg.elements)
                pred = self.pred[f] = {q: [] for q in states}
                outs = self.by_out[f] = {}
                for q in states:
                    outs.setdefault(m.out[q], []).append(q)
                    for a, q2 in zip(alg.elements, rows[q]):
                        pred[q2].append((q, a))
        by_out = self.by_out
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
        children before parents, each with its size and text.  A tree has
        one value and a word one state, so none is built twice."""
        alg, rec = self.alg, self.rec
        built: dict = {}  # element node: (size, rendering, tree)s; state node: (size, text, kids)s
        for node in order:
            f, x = node
            if f is None:
                trees = [(1, y, leaf(y)) for y in rec.table.leaves if rec.valuation[y] == x]
                for g, s in self.sources[node]:
                    trees.extend(_node(g, *word) for word in built[(g, s)])
                built[node] = trees
            else:
                words = [(0, "", ())] if x == alg.ops[f].start else []
                for q, a in self.pred[f][x]:
                    words.extend((d + s, text + r + ",", kids + (t,))
                                 for d, text, kids in built[(f, q)] for s, r, t in built[(None, a)])
                built[node] = words
        accepted = [e for b in alg.elements if b in rec.finals for e in built[(None, b)]]
        accepted.sort(key=lambda e: e[:2])
        return tuple(t for _, _, t in accepted)

    def count(self, order) -> int:
        """The number of accepted trees, along the order of ``members`` with
        a number in place of each list: an element's leaves plus the words
        of its source states, a state's empty word if it starts plus
        count(q) * count(a) over its predecessors (q, a); one big-integer
        multiply-add per graph edge, and no tree built."""
        alg, rec, n = self.alg, self.rec, {}
        for node in order:
            f, x = node
            if f is None:
                n[node] = sum(v == x for v in rec.valuation.values()) + sum(
                    n[source] for source in self.sources[node])
            else:
                n[node] = (x == alg.ops[f].start) + sum(
                    n[(f, q)] * n[(None, a)] for q, a in self.pred[f][x])
        return sum(n[(None, b)] for b in rec.finals)

    def pump(self, cycle) -> Tree:
        """An accepted tree that pumps the cycle (its nodes, each built from
        the one before) past criterion 9's bounds
        (arity at least the machine's state count, or height at least the
        carrier size), plugged into contexts up its value's useful chain."""
        alg, value = self.alg, self.least
        if not value:
            value.update((a, t) for a, (_, _, t) in _least_trees(self.rec).items())

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
    order, built by value, so its cost follows the members' total size
    (``decide_nil`` counts them instead).
    """
    trec, reached, named = _trim(rec)
    graph = _PumpingGraph(trec, reached, named)
    order, cycle = _order_or_cycle(graph.sources)
    if cycle is None:
        return Finite(graph.members(order))
    witness = graph.pump(cycle)
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
