"""Answer checks that do not trust the code under test.

Trees are rendered, measured and enumerated here by code of the
benchmark's own.  Witnesses returned by ``uta`` are re-verified through
``membership`` and ``abstraction_key``, and verdicts the construction does
not fix are compared with ``uta.oracle``, the library's brute-force
referee.  A failed check raises ``Mismatch``; the run loop counts it as
one failed op and goes on.
"""

from __future__ import annotations

import re


class Mismatch(Exception):
    """An answer that is wrong, or whose witness does not re-verify."""


def expect(cond: bool, message: str):
    if not cond:
        raise Mismatch(message)


# ---------------------------------------------------------------------------
# Trees, independently of uta.trees


def tree_text(t) -> str:
    """Canonical text of a uta Tree: ``f(a,b)``, bare name for no children."""
    out = []
    stack = [t]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        if not item.children:
            out.append(item.label)
            continue
        out.append(item.label + "(")
        stack.append(")")
        for i in range(len(item.children) - 1, -1, -1):
            stack.append(item.children[i])
            if i:
                stack.append(",")
    return "".join(out)


def tree_nodes(t) -> int:
    n = 0
    stack = [t]
    while stack:
        u = stack.pop()
        n += 1
        stack.extend(u.children)
    return n


def text_nodes(text: str) -> int:
    """Node count of a canonical term text: one node per name."""
    return len(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", text))


def order_key(text: str):
    """The (size, rendering) order in which uta lists and minimizes trees."""
    return (text_nodes(text), text)


def all_tree_texts(operators, leaves, max_size: int) -> dict:
    """Every tree with at most max_size nodes, as canonical text, by size."""
    by = {1: sorted(list(leaves) + list(operators))}
    for s in range(2, max_size + 1):
        words = _child_words(by, s - 1)
        by[s] = sorted(f"{f}({','.join(w)})" for f in operators for w in words)
    return by


def _child_words(by: dict, total: int) -> list:
    """Sequences of trees whose sizes sum to total."""
    if total == 0:
        return [()]
    out = []
    for first in range(1, total + 1):
        for head in by[first]:
            for rest in _child_words(by, total - first):
                out.append((head,) + rest)
    return out


def build_tree(uta, text: str, leaves):
    """A uta Tree from canonical text, built with the data constructors
    only, so that no parsing happens inside a timed op."""

    def atom(x):
        if not isinstance(x, str):
            return x
        return uta.trees.leaf(x) if x in leaves else uta.trees.op(x)

    labels = []
    stack = [[]]
    for tok in re.findall(r"[A-Za-z_][A-Za-z0-9_]*|[(),]", text):
        if tok == "(":
            labels.append(stack[-1].pop())
            stack.append([])
        elif tok == ")":
            kids = [atom(k) for k in stack.pop()]
            stack[-1].append(uta.trees.op(labels.pop(), kids))
        elif tok != ",":
            stack[-1].append(tok)
    (root,) = stack[0]
    return atom(root)


# ---------------------------------------------------------------------------
# Witness re-verification


def check_membership_differs(uta, rec, pair):
    a, b = pair
    expect(
        uta.recognizer.membership(rec, a) != uta.recognizer.membership(rec, b),
        f"witness pair {tree_text(a)} / {tree_text(b)} has equal membership",
    )


def check_same_key(uta, pair, kind):
    a, b = pair
    expect(
        uta.trees.abstraction_key(a, kind) == uta.trees.abstraction_key(b, kind),
        f"witness pair {tree_text(a)} / {tree_text(b)} differs under {kind!r}",
    )


def reachable(rec) -> set:
    """Carrier elements some tree evaluates to: a closure of our own."""
    alg = rec.algebra
    current = set(rec.valuation.values())
    changed = True
    while changed:
        changed = False
        letters = [a for a in alg.elements if a in current]
        for f in alg.sigma:
            m = alg.ops[f]
            seen, todo = {m.start}, [m.start]
            while todo:
                q = todo.pop()
                if m.out[q] not in current:
                    current.add(m.out[q])
                    changed = True
                for a in letters:
                    q2 = m.delta[(q, a)]
                    if q2 not in seen:
                        seen.add(q2)
                        todo.append(q2)
    return current


def value(rec, t):
    """The value of a tree, by an evaluator of our own (iterative)."""
    alg = rec.algebra
    out = []
    stack = [(t, False)]
    while stack:
        u, done = stack.pop()
        if u.is_leaf:
            out.append(rec.valuation[u.label])
        elif done:
            n = len(u.children)
            word = out[len(out) - n :] if n else []
            del out[len(out) - n :]
            m = alg.ops[u.label]
            q = m.start
            for a in word:
                q = m.delta[(q, a)]
            out.append(m.out[q])
        else:
            stack.append((u, True))
            stack.extend((c, False) for c in reversed(u.children))
    return out[0]


def syntactic_classes(rec) -> dict:
    """Class index of each reachable element under the coarsest congruence
    that saturates the accepting set, by refinement of our own: two values
    stay together while no operator, entered in a reachable state, leads
    them to states that the current classes tell apart."""
    alg = rec.algebra
    carrier = sorted(reachable(rec), key=alg.elements.index)
    cls = {a: int(a in rec.finals) for a in carrier}
    starts = {}
    for f in alg.sigma:
        m = alg.ops[f]
        seen, todo = {m.start}, [m.start]
        while todo:
            q = todo.pop()
            for a in carrier:
                q2 = m.delta[(q, a)]
                if q2 not in seen:
                    seen.add(q2)
                    todo.append(q2)
        starts[f] = sorted(seen, key=m.states.index)
    while True:
        sig = {a: [cls[a]] for a in carrier}
        for f in alg.sigma:
            m = alg.ops[f]
            states = starts[f]
            qcls = {q: cls[m.out[q]] for q in states}
            while True:
                keys = {q: (qcls[q],) + tuple(qcls[m.delta[(q, a)]] for a in carrier) for q in states}
                ids: dict = {}
                nxt = {q: ids.setdefault(keys[q], len(ids)) for q in states}
                if len(ids) == len(set(qcls.values())):
                    break
                qcls = nxt
            for a in carrier:
                sig[a].append(tuple(qcls[m.delta[(q, a)]] for q in states))
        ids = {}
        nxt = {a: ids.setdefault(tuple(sig[a]), len(ids)) for a in carrier}
        if len(ids) == len(set(cls.values())):
            return nxt
        cls = nxt


def proper_cycle(table: tuple, elements: tuple) -> bool:
    """True iff iterating the map ``table`` (indexed like ``elements``)
    enters a cycle of length above one, i.e. p^(n+1) != p^n for all n."""
    pos = {a: i for i, a in enumerate(elements)}
    power = tuple(elements)
    seen = {power}
    while True:
        nxt = tuple(table[pos[b]] for b in power)
        if nxt == power:
            return False
        if nxt in seen:
            return True
        seen.add(nxt)
        power = nxt


def stated_depth(detail: str):
    m = re.search(r"depth (\d+)", detail or "")
    return int(m.group(1)) if m else None
