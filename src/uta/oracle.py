"""Brute-force oracles for the test suite.

Everything here works from first principles: membership tests, explicit
enumeration, plugging contexts.  None of it calls the syntactic-algebra,
translation, or decision machinery it is used to check.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import AlgebraError, RegularAlgebra, _closure, _row_machine, run_word, verify_algebra_gmorphism
from .recognizer import Recognizer, membership
from .partition import Partition
from .trees import (
    HOLE,
    Tree,
    abstraction_key,
    enumerate_contexts,
    enumerate_trees,
    plug,
)


@dataclass(frozen=True)
class BruteUniverse:
    trees: tuple
    contexts: tuple


def make_universe(table, tree_bounds=(5, 3), ctx_bounds=(5, 3)) -> BruteUniverse:
    return BruteUniverse(
        tuple(enumerate_trees(table, *tree_bounds)),
        tuple(enumerate_contexts(table, *ctx_bounds)),
    )


def _hole_eval(rec: Recognizer, ctx: Tree, hole_value):
    """Evaluate a context with its hole preset; local re-implementation so
    this module checks the library rather than reusing it.  Each node's
    children are evaluated into a word first, and the word is then run
    through the node's machine; open nodes wait on a stack."""
    if ctx.is_leaf:
        return hole_value if ctx.label == HOLE else rec.valuation[ctx.label]
    ops, valuation = rec.algebra.ops, rec.valuation
    stack = []
    u, kids, word = ctx, iter(ctx.children), []
    while True:
        for c in kids:
            if c.is_leaf:
                word.append(hole_value if c.label == HOLE else valuation[c.label])
            else:
                stack.append((u, kids, word))
                u, kids, word = c, iter(c.children), []
                break
        else:
            value = run_word(ops[u.label], word)
            if not stack:
                return value
            u, kids, word = stack.pop()
            word.append(value)


def brute_syntactic_partition(
    rec: Recognizer, universe: BruteUniverse, literal: bool = False
) -> Partition:
    """Group the universe trees by their membership profile over the
    universe contexts.

    The profile of a tree depends only on its value, because plugging a
    tree into a context literally evaluates the tree at the hole position;
    the fast path exploits that, and ``literal`` forces the plug-and-test
    reading (bit-identical, only slower).
    """
    if literal:
        def profile(t):
            return tuple(membership(rec, plug(p, t)) for p in universe.contexts)

        return Partition.from_key(universe.trees, profile)

    from .algebra import eval_term

    columns = {
        a: tuple(
            _hole_eval(rec, p, a) in rec.finals for p in universe.contexts
        )
        for a in rec.algebra.elements
    }

    def profile(t):
        return columns[eval_term(rec.algebra, rec.valuation, t)]

    return Partition.from_key(universe.trees, profile)


def brute_variety_check(rec: Recognizer, kind, universe: BruteUniverse):
    """Test the kind's defining implication on every pair of universe trees
    using membership only; returns (ok, offending pair or None)."""
    groups: dict = {}
    for t in universe.trees:
        key = abstraction_key(t, kind)
        member = membership(rec, t)
        if key in groups:
            t0, m0 = groups[key]
            if m0 != member:
                return False, (t0, t)
        else:
            groups[key] = (t, member)
    return True, None


def _closed_subsets(alg: RegularAlgebra):
    """All operation-closed carrier subsets, smallest first."""
    from itertools import combinations

    n = len(alg.elements)
    constants = {run_word(alg.ops[f], ()) for f in alg.sigma}
    for r in range(1, n + 1):
        for combo in combinations(alg.elements, r):
            sub = set(combo)
            if not constants <= sub:
                continue
            if _is_closed(alg, sub):
                yield tuple(combo)


def _is_closed(alg: RegularAlgebra, sub: set) -> bool:
    letters = [a for a in alg.elements if a in sub]
    for f in alg.sigma:
        m = alg.ops[f]
        seen = {m.start}
        stack = [m.start]
        while stack:
            q = stack.pop()
            if m.out[q] not in sub:
                return False
            for a in letters:
                q2 = m.delta[(q, a)]
                if q2 not in seen:
                    seen.add(q2)
                    stack.append(q2)
    return True


def subalgebra(alg: RegularAlgebra, subset) -> RegularAlgebra:
    """Restriction to a closed subset, each machine read off one closure."""
    keep = set(subset)
    sub = tuple(a for a in alg.elements if a in keep)
    closed, reached = _closure(alg.elements, [alg.ops[f] for f in alg.sigma], sub)
    if closed != sub:
        raise AlgebraError("subset is not closed under the operations")
    ops = {f: _row_machine(alg.ops[f], rows, sub) for f, rows in zip(alg.sigma, reached)}
    return RegularAlgebra(sub, alg.sigma, ops)


def covers_search(small: RegularAlgebra, big: RegularAlgebra, max_size: int = 5) -> bool:
    """Exhaustively decide whether ``small`` is an epimorphic image of some
    subalgebra of ``big`` (same operator alphabet, identity renaming)."""
    if len(big.elements) > max_size or len(small.elements) > max_size:
        raise ValueError("carrier too large for exhaustive cover search")
    if set(small.sigma) != set(big.sigma):
        raise ValueError("cover search needs a common operator alphabet")
    from itertools import product as _cartesian

    iota = {f: f for f in small.sigma}
    targets = tuple(small.elements)
    for sub in _closed_subsets(big):
        if len(sub) < len(targets):
            continue
        sub_alg = subalgebra(big, sub)
        for images in _cartesian(targets, repeat=len(sub)):
            if set(images) != set(targets):
                continue
            phi = dict(zip(sub, images))
            ok, _ = verify_algebra_gmorphism(sub_alg, small, iota, phi)
            if ok:
                return True
    return False
