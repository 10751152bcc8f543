"""Unranked node-labeled trees, contexts, and structural abstractions.

A tree node is either a leaf (labeled from the leaf alphabet, or the
reserved hole token ``@``) or an operator node with any number of ordered
children.  Canonical text form: ``name`` or ``name(child,...,child)`` with
no whitespace; an operator node with no children renders as the bare name.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import product as _cartesian

HOLE = "@"

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_TOKEN_RE = re.compile(r"[ \t\r\n]*([A-Za-z_][A-Za-z0-9_]*|[(),@])")
_TOKENS_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[(),@]")
_NO_SPACE = str.maketrans("", "", " \t\r\n")


class TermError(ValueError):
    """Malformed term text, or a term violating its symbol table."""


@dataclass(frozen=True)
class SymbolTable:
    """Operator and leaf alphabets: disjoint sets of identifier names.

    Operators may label any node; leaf names label leaves only.  The hole
    token ``@`` is reserved and may not be declared.
    """

    operators: tuple
    leaves: tuple = ()
    operator_set: frozenset = field(init=False, compare=False, repr=False)
    leaf_set: frozenset = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "operators", tuple(self.operators))
        object.__setattr__(self, "leaves", tuple(self.leaves))
        object.__setattr__(self, "operator_set", frozenset(self.operators))
        object.__setattr__(self, "leaf_set", frozenset(self.leaves))
        if not self.operators:
            raise TermError("operator alphabet must be nonempty")
        names = list(self.operators) + list(self.leaves)
        for n in names:
            if not _NAME_RE.match(n):
                raise TermError(f"bad symbol name {n!r}")
        if len(set(names)) != len(names):
            raise TermError("operator and leaf names must be distinct")

    def is_operator(self, name: str) -> bool:
        return name in self.operator_set

    def is_leaf_name(self, name: str) -> bool:
        return name in self.leaf_set

    def __contains__(self, name: str) -> bool:
        return name in self.operator_set or name in self.leaf_set


@dataclass(frozen=True)
class Tree:
    """One tree node; ``is_leaf`` distinguishes leaf labels from bare operators."""

    label: str
    children: tuple = ()
    is_leaf: bool = False

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        if self.is_leaf and self.children:
            raise TermError(f"leaf {self.label!r} cannot have children")

    def __eq__(self, other):
        """Structural equality, compared pair by pair from a stack of node
        pairs; leaf children are compared in place."""
        if other.__class__ is not Tree:
            return NotImplemented
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a.label != b.label or a.is_leaf != b.is_leaf or len(a.children) != len(b.children):
                return False
            for x, y in zip(a.children, b.children):
                if x is y:
                    continue
                if x.children:
                    pairs.append((x, y))
                elif y.children or x.label != y.label or x.is_leaf != y.is_leaf:
                    return False
        return True

    def __hash__(self):
        """Hash of the canonical rendering, which equal trees share; made
        without recursion, and cached nowhere, so a tree unpickled in
        another process (other string hashes) hashes afresh."""
        return hash(render(self))

    def __repr__(self):
        return f"Tree<{render(self)}>"


def leaf(name: str) -> Tree:
    return Tree(name, (), True)


def op(name: str, children=()) -> Tree:
    return Tree(name, tuple(children), False)


HOLE_LEAF = leaf(HOLE)


def render(t: Tree) -> str:
    """Canonical text of a tree: no whitespace, bare name for 0 children.

    Tokens go to one list, joined once.  Every finished node is followed by
    a "," token; finishing a node turns the "," after its last child into
    ")".
    """
    if not t.children:
        return t.label
    out = [t.label, "("]
    append = out.append
    stack = [iter(t.children)]
    while stack:
        for c in stack[-1]:
            append(c.label)
            if c.children:
                append("(")
                stack.append(iter(c.children))
                break
            append(",")
        else:
            stack.pop()
            out[-1] = ")"
            append(",")
    out.pop()
    return "".join(out)


def pretty(t: Tree, indent: str = "  ") -> str:
    """Multi-line indented rendering, one node per line."""
    lines = [t.label]
    stack = [iter(t.children)]
    while stack:
        for c in stack[-1]:
            lines.append(indent * len(stack) + c.label)
            if c.children:
                stack.append(iter(c.children))
                break
        else:
            stack.pop()
    return "\n".join(lines)


def height(t: Tree) -> int:
    h, level = 0, t.children
    while level:
        h += 1
        level = [c for u in level for c in u.children]
    return h


def size(t: Tree) -> int:
    n, stack = 0, [(t,)]
    while stack:
        kids = stack.pop()
        n += len(kids)
        for c in kids:
            if c.children:
                stack.append(c.children)
    return n


def root(t: Tree) -> str:
    return t.label


def tree_measures(t: Tree) -> tuple:
    """(height, root symbol, node count) of a tree."""
    return (height(t), root(t), size(t))


def subtrees(t: Tree):
    """All subtrees of t, including t itself (pre-order)."""
    yield t
    stack = [iter(t.children)]
    while stack:
        for c in stack[-1]:
            yield c
            if c.children:
                stack.append(iter(c.children))
                break
        else:
            stack.pop()


def hole_count(t: Tree) -> int:
    n, stack = 0, [(t,)]
    while stack:
        for c in stack.pop():
            if c.children:
                stack.append(c.children)
            elif c.is_leaf and c.label == HOLE:
                n += 1
    return n


def is_context(t: Tree) -> bool:
    return hole_count(t) == 1


def validate_tree(table: SymbolTable, t: Tree, allow_hole: bool = False) -> None:
    """Check every label of t against the table; raises TermError.

    The scan is in pre-order, so the fault reported is the first in text
    order.
    """
    operators, leaves = table.operator_set, table.leaf_set
    stack = [iter((t,))]
    while stack:
        for u in stack[-1]:
            if u.is_leaf:
                if u.label == HOLE:
                    if not allow_hole:
                        raise TermError("hole not allowed here")
                elif u.label not in leaves:
                    raise TermError(f"unknown leaf symbol {u.label!r}")
            elif u.label not in operators:
                raise TermError(f"unknown operator symbol {u.label!r}")
            elif u.children:
                stack.append(iter(u.children))
                break
        else:
            stack.pop()


# ---------------------------------------------------------------------------
# Parsing


def _tokenize(text: str) -> list:
    """Tokens of a term: names and ``( ) , @``, split by spaces, tabs and
    line breaks.  One ``findall`` covers the whole text when nothing else is
    in it; otherwise the token-by-token scan finds and reports the fault."""
    tokens = _TOKENS_RE.findall(text)
    if "".join(tokens) == text.translate(_NO_SPACE):
        return tokens
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            rest = text[pos:].strip()
            if not rest:
                break
            raise TermError(f"unexpected character {rest[0]!r} at position {pos}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


def parse_term(text: str, table: SymbolTable, allow_hole: bool = False) -> Tree:
    """Parse ``f(g(y),x,f)`` syntax; whitespace-insensitive.

    With ``allow_hole`` the result must be a context: exactly one ``@``.
    A shift-reduce loop: each open operator is a (label, children) frame,
    and a finished node is appended to the innermost open frame.
    """
    if not text or not text.strip():
        raise TermError("empty term")
    tokens = _tokenize(text)
    tokens.append(None)  # end marker
    operators, leaves = table.operator_set, table.leaf_set
    atoms: dict = {}
    frames: list = []  # the enclosing open frames
    label = children = None  # the innermost open frame
    i = 0
    while True:
        tok = tokens[i]
        if tok is None:
            raise TermError("unexpected end of term")
        i += 1
        if tok in "(),":
            raise TermError(f"unexpected {tok!r}")
        if tok == HOLE:
            if not allow_hole:
                raise TermError("hole '@' not allowed in a tree")
            if tokens[i] == "(":
                raise TermError("hole cannot take children")
            node = HOLE_LEAF
        elif tokens[i] == "(":
            if tok in leaves:
                raise TermError(f"leaf symbol {tok!r} used with children")
            if tok not in operators:
                raise TermError(f"unknown symbol {tok!r}")
            frames.append((label, children))
            label, children = tok, []
            i += 1
            continue
        else:
            node = atoms.get(tok)
            if node is None:
                if tok in operators:
                    node = atoms[tok] = Tree(tok, (), False)
                elif tok in leaves:
                    node = atoms[tok] = Tree(tok, (), True)
                else:
                    raise TermError(f"unknown symbol {tok!r}")
        # node is finished: add it to its frame, closing every frame it ends
        while children is not None:
            children.append(node)
            tok = tokens[i]
            i += 1
            if tok == ",":
                break
            if tok != ")":
                raise TermError("expected ')'")
            node = Tree(label, children, False)
            label, children = frames.pop()
        else:
            break  # node is the whole term
    if tokens[i] is not None:
        raise TermError(f"trailing input after term: {tokens[i]!r}")
    if allow_hole:
        n = hole_count(node)
        if n != 1:
            raise TermError(f"a context needs exactly one hole, found {n}")
    return node


# ---------------------------------------------------------------------------
# Substitution


def plug(p: Tree, arg: Tree) -> Tree:
    """Replace the unique hole of context p by arg (a tree or a context)."""
    if not is_context(p):
        raise TermError("plug target must contain exactly one hole")
    return _subst(p, arg)


def _subst(t: Tree, arg: Tree) -> Tree:
    """t with every hole replaced by arg; subtrees without a hole are kept.

    Post-order over (node, child iterator, new children, changed) frames."""
    if t.is_leaf:
        return arg if t.label == HOLE else t
    frames = []
    u, kids, done, changed = t, iter(t.children), [], False
    while True:
        for c in kids:
            if c.children:
                frames.append((u, kids, done, changed))
                u, kids, done, changed = c, iter(c.children), [], False
                break
            if c.is_leaf and c.label == HOLE:
                c, changed = arg, True
            done.append(c)
        else:
            new = Tree(u.label, done) if changed else u
            if not frames:
                return new
            u, kids, done, parent_changed = frames.pop()
            done.append(new)
            changed = parent_changed or changed


def compose(p: Tree, q: Tree) -> Tree:
    """Monoid product of contexts: the context q(p), first p then q outside."""
    if not is_context(p) or not is_context(q):
        raise TermError("compose expects two contexts")
    return plug(q, p)


# ---------------------------------------------------------------------------
# Structural abstractions


class _EmptyRoot:
    """Sentinel for the depth-0 root segment; not itself a tree."""

    __slots__ = ()

    def __repr__(self):
        return "ε"


EMPTY_ROOT = _EmptyRoot()


def _shorter_than(t: Tree, k: int) -> bool:
    """Whether height(t) < k, looking at the top k levels only."""
    level = (t,)
    for _ in range(k):
        level = [c for u in level for c in u.children]
        if not level:
            return True
    return False


def root_segment(t: Tree, k: int):
    """Top k levels of t: the whole tree when shallower, ε sentinel at k=0."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return EMPTY_ROOT
    if k == 1 or not t.children:
        return Tree(t.label) if t.children else t
    # Post-order over the top k levels; a node's segment is the node itself
    # exactly when each of its children's segments is the child itself.
    frames = []
    u, kids, segs, left = t, iter(t.children), [], k - 1
    while True:
        for c in kids:
            if left > 1 and c.children:
                frames.append((u, kids, segs, left))
                u, kids, segs, left = c, iter(c.children), [], left - 1
                break
            segs.append(Tree(c.label) if c.children else c)
        else:
            new = u if all(a is b for a, b in zip(segs, u.children)) else Tree(u.label, segs)
            if not frames:
                return new
            u, kids, segs, left = frames.pop()
            segs.append(new)


def bounded_subtrees(t: Tree, k: int) -> frozenset:
    """Subtrees of t (including t) of height strictly below k."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return frozenset(s for s in subtrees(t) if _shorter_than(s, k))


def forks(t: Tree, k: int) -> frozenset:
    """All depth-k root segments of subtrees of t that are deep enough.

    Every member has height exactly k-1; trees of height below k-1
    contribute nothing.  Requires k >= 2.
    """
    if k < 2:
        raise ValueError("forks need k >= 2")
    return frozenset(root_segment(s, k) for s in subtrees(t) if not _shorter_than(s, k - 1))


def embeds(s: Tree, t: Tree) -> bool:
    """Homeomorphic embedding s into t.

    Either s equals t, or both are nodes with the same operator and the
    same number of children embedding componentwise, or s embeds into some
    child of t.  Note the arity match in the middle clause: a bare
    operator f does not embed into f(t1,...,tm) unless f occurs lower.

    A table over (node of s, node of t) pairs, O(|s|·|t|): post-order over
    t, each node with the bit set of the nodes of s that embed into it.
    The nodes of s are numbered in post-order, so a node's last child is
    the node just below it, and that child's test is one shift for all.
    """
    kids_of = []  # node number of s -> the numbers of its children
    shapes = {}  # (label, is_leaf, arity) -> bit set of the nodes of s of that shape
    stack = [(s, iter(s.children), [])]
    while stack:
        u, kids, numbers = stack[-1]
        c = next(kids, None)
        if c is not None:
            stack.append((c, iter(c.children), []))
            continue
        stack.pop()
        shape = (u.label, u.is_leaf, len(numbers))
        shapes[shape] = shapes.get(shape, 0) | 1 << len(kids_of)
        if stack:
            stack[-1][2].append(len(kids_of))
        kids_of.append(numbers)
    root = 1 << (len(kids_of) - 1)  # s itself
    stack = [(t, iter(t.children), [])]
    while stack:
        v, kids, below = stack[-1]
        c = next(kids, None)
        if c is not None:
            stack.append((c, iter(c.children), []))
            continue
        stack.pop()
        match = shapes.get((v.label, v.is_leaf, len(below)), 0)
        if below:
            match &= below[-1] << 1
            rest = match if len(below) > 1 else 0
            while rest:  # the other children, one node of s at a time
                low = rest & -rest
                rest ^= low
                if not all(b >> k & 1 for b, k in zip(below, kids_of[low.bit_length() - 1])):
                    match ^= low
            for b in below:
                match |= b
        if match & root:
            return True
        if stack:
            stack[-1][2].append(match)
    return False


def pieces(t: Tree, k: int) -> frozenset:
    """All trees of height below k that embed into t, computed bottom-up.

    Post-order over the nodes of t; each node's piece sets of heights below
    1..k are kept by node identity, so a shared subtree is done once."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return frozenset()
    done: dict = {}  # id(node) -> its piece sets below heights 1..k
    stack = [t]
    while stack:
        u = stack[-1]
        if id(u) in done:
            stack.pop()
            continue
        waiting = [c for c in u.children if id(c) not in done]
        if waiting:
            stack.extend(reversed(waiting))
            continue
        stack.pop()
        if not u.children:
            done[id(u)] = (frozenset((u,)),) * k
            continue
        below = [done[id(c)] for c in u.children]
        sets = []
        for j in range(k):
            acc = set().union(*[p[j] for p in below])
            if j:
                acc.update(Tree(u.label, combo) for combo in _cartesian(*[p[j - 1] for p in below]))
            sets.append(frozenset(acc))
        done[id(u)] = tuple(sets)
    return done[id(t)][k - 1]


# ---------------------------------------------------------------------------
# Abstraction kinds and keys


@dataclass(frozen=True)
class Definite:
    """Membership depends only on the top k levels; k=None means 'some k'."""

    k: int | None = None


@dataclass(frozen=True)
class ReverseDefinite:
    """Membership depends only on the subtrees of height below k."""

    k: int


@dataclass(frozen=True)
class GenDefinite:
    """Membership depends on low subtrees (below h) plus the top k levels."""

    h: int
    k: int


@dataclass(frozen=True)
class LocTestable:
    """Membership depends on the depth-k fork set plus boundary data."""

    k: int


@dataclass(frozen=True)
class PwTestable:
    """Membership depends on the embedded pieces of height below k."""

    k: int


KEYED_KINDS = (Definite, ReverseDefinite, GenDefinite, LocTestable, PwTestable)


def abstraction_key(t: Tree, kind):
    """Hashable key such that two trees are kind-related iff keys are equal."""
    if isinstance(kind, Definite):
        if kind.k is None or kind.k < 0:
            raise ValueError("Definite key needs a parameter k >= 0")
        return root_segment(t, kind.k)
    if isinstance(kind, ReverseDefinite):
        if kind.k < 0:
            raise ValueError("ReverseDefinite needs k >= 0")
        return bounded_subtrees(t, kind.k)
    if isinstance(kind, GenDefinite):
        if kind.h < 0 or kind.k < 0:
            raise ValueError("GenDefinite needs h, k >= 0")
        return (bounded_subtrees(t, kind.h), root_segment(t, kind.k))
    if isinstance(kind, LocTestable):
        if kind.k < 2:
            raise ValueError("LocTestable needs k >= 2")
        return (
            bounded_subtrees(t, kind.k - 1),
            root_segment(t, kind.k - 1),
            forks(t, kind.k),
        )
    if isinstance(kind, PwTestable):
        if kind.k < 0:
            raise ValueError("PwTestable needs k >= 0")
        return pieces(t, kind.k)
    raise ValueError(f"no abstraction key for {kind!r}")


# ---------------------------------------------------------------------------
# Tree-to-tree morphisms


@dataclass(frozen=True)
class TermGMorphism:
    """Relabels operators via ``iota`` and substitutes trees for leaves.

    ``iota`` must cover the source operators, ``alpha`` the source leaves;
    alpha values are trees over the destination table.
    """

    src: SymbolTable
    dst: SymbolTable
    iota: dict
    alpha: dict

    def __post_init__(self):
        object.__setattr__(self, "iota", dict(self.iota))
        object.__setattr__(self, "alpha", dict(self.alpha))
        if set(self.iota) != set(self.src.operators):
            raise TermError("iota must cover exactly the source operators")
        if set(self.alpha) != set(self.src.leaves):
            raise TermError("alpha must cover exactly the source leaves")
        for f, g in self.iota.items():
            if not self.dst.is_operator(g):
                raise TermError(f"iota({f}) = {g!r} is not a destination operator")
        for x, u in self.alpha.items():
            validate_tree(self.dst, u)


def identity_gmorphism(table: SymbolTable) -> TermGMorphism:
    return TermGMorphism(
        table, table, {f: f for f in table.operators}, {x: leaf(x) for x in table.leaves}
    )


def relabel_gmorphism(src: SymbolTable, dst: SymbolTable, iota: dict) -> TermGMorphism:
    """The leaf-preserving relabeling morphism; leaves of src must exist in dst."""
    for x in src.leaves:
        if not dst.is_leaf_name(x):
            raise TermError(f"leaf {x!r} missing from destination table")
    return TermGMorphism(src, dst, iota, {x: leaf(x) for x in src.leaves})


def apply_term_gmorphism(m: TermGMorphism, t: Tree) -> Tree:
    """Image of t: leaves go through alpha, operator labels through iota.

    The hole is preserved, so contexts map to contexts.  Post-order over
    (image label, child iterator, child images) frames; nodes are looked up
    in pre-order, so a tree outside the domain reports its first fault in
    text order.
    """
    iota, alpha = m.iota, m.alpha

    def relabel(u: Tree) -> str:
        try:
            return iota[u.label]
        except KeyError:
            raise TermError(f"operator {u.label!r} outside morphism domain") from None

    def atom(u: Tree) -> Tree:
        """The image of a node without children."""
        if not u.is_leaf:
            return Tree(relabel(u))
        if u.label == HOLE:
            return u
        try:
            return alpha[u.label]
        except KeyError:
            raise TermError(f"leaf {u.label!r} outside morphism domain") from None

    if not t.children:
        return atom(t)
    frames = []
    g, kids, done = relabel(t), iter(t.children), []
    while True:
        for c in kids:
            if c.children:
                frames.append((g, kids, done))
                g, kids, done = relabel(c), iter(c.children), []
                break
            done.append(atom(c))
        else:
            new = Tree(g, done)
            if not frames:
                return new
            g, kids, done = frames.pop()
            done.append(new)


# ---------------------------------------------------------------------------
# Bounded enumeration over hash-consed trees


def _compositions(total: int, max_parts: int):
    """Ordered tuples of positive ints summing to total, length <= max_parts,
    in lexicographic order, made without recursion: each raises the second
    to last part of the one before by one and spreads what its last part
    leaves over ones and a final part, as the length bound allows."""
    comp, rest = [], total
    while True:
        if rest:
            k = min(max_parts - len(comp), rest)
            if k <= 0:
                return
            comp += [1] * (k - 1) + [rest - k + 1]
        yield tuple(comp)
        if len(comp) < 2:
            return
        rest = comp.pop() - 1
        comp[-1] += 1


class TreeBank:
    """Hash-consed trees over one table: each distinct node has an integer id.

    A node is interned as ``(label, is_leaf, child ids)``; its label, leaf
    flag, child ids, height and canonical rendering are kept in lists
    indexed by id, and ``index`` maps the triple back to the id.  Equal
    trees therefore have equal ids, and ``prefix[i]`` is the id of i's label
    over its children but the last (None for no children or no such id).

    ``trees`` and ``contexts`` enumerate lazily: the bucket of one size is
    built only once the bucket before it has been consumed, its renderings
    are made from the children's, and it is interned in rendering order.
    Each bucket gets consecutive ids, which ``tree_ids`` reads.
    A bank that only enumerates trees numbers them 0, 1, 2, ... in
    (size, rendering) order, children before parents.
    """

    def __init__(self, table: SymbolTable, max_arity=None):
        self.leaves, self.operators = table.leaves, table.operators  # not the table, which keys a weak cache of banks
        self.max_arity = max_arity
        self.label: list = []
        self.is_leaf: list = []
        self.kids: list = []
        self.prefix: list = []
        self.height: list = []
        self.text: list = []
        self.index: dict = {}
        self._trees: list = [None]
        self._contexts: list = [None]

    def trees(self, max_size: int):
        """Ids of all trees with at most max_size nodes, in enumeration order."""
        for s in range(1, max_size + 1):
            yield from self._tree_bucket(s)

    def tree_ids(self, size: int) -> list:
        """The consecutive ids of the trees of exactly size nodes, as the bank's
        own list (not to be changed), whose ints ``index`` and ``kids`` share."""
        return self._tree_bucket(size)

    def contexts(self, max_size: int):
        """Ids of all contexts (exactly one hole) within max_size nodes."""
        for s in range(1, max_size + 1):
            yield from self._context_bucket(s)

    def tree(self, i: int, memo=None) -> Tree:
        """The Tree of an id, rebuilt from its children's (shared via memo)
        in one pass over the ids it needs in id order, children first."""
        memo = {} if memo is None else memo
        need, new = set(), {i} - memo.keys()
        while new:
            need |= new
            new = {c for j in new for c in self.kids[j] if c not in memo} - need
        for j in sorted(need):
            memo[j] = Tree(self.label[j], tuple([memo[c] for c in self.kids[j]]), self.is_leaf[j])
        return memo[i]

    def drop_last_texts(self) -> None:
        """Forget the last tree bucket's renderings until ``_texts`` needs them."""
        del self.text[len(self.label) - len(self._trees[-1]):]

    def _tree_bucket(self, s: int) -> list:
        while len(self._trees) <= s:
            n = len(self._trees)
            if n == 1:
                atoms = [(x, x, True, ()) for x in self.leaves]
                atoms += [(f, f, False, ()) for f in self.operators]
                self._trees.append(self._intern(atoms))
                continue

            def pools(comp):
                yield [self._trees[c] for c in comp]

            self._trees.append(self._intern(self._nodes(n, pools)))
        return self._trees[s]

    def _context_bucket(self, s: int) -> list:
        while len(self._contexts) <= s:
            n = len(self._contexts)
            if n == 1:
                self._contexts.append(self._intern([(HOLE, HOLE, True, ())]))
                continue

            def pools(comp):
                for hole_at in range(len(comp)):
                    yield [
                        self._contexts[c] if i == hole_at else self._tree_bucket(c)
                        for i, c in enumerate(comp)
                    ]

            self._contexts.append(self._intern(self._nodes(n, pools)))
        return self._contexts[s]

    def _nodes(self, s: int, pools) -> list:
        """(rendering, label, is_leaf, child ids) of the operator nodes of
        size s whose children, sized by a composition of s-1, come from the
        id pools that ``pools(composition)`` yields."""
        cap = s - 1 if self.max_arity is None else min(self.max_arity, s - 1)
        text = self._texts()
        out = []
        for f in self.operators:
            for comp in _compositions(s - 1, cap):
                for pool in pools(comp):
                    for kids in _cartesian(*pool):
                        out.append((f + "(" + ",".join([text[c] for c in kids]) + ")", f, False, kids))
        return out

    def _intern(self, bucket: list) -> list:
        """Give each node of a bucket the next id, in rendering order."""
        bucket.sort()
        text = self._texts()
        start = len(self.label)
        ids = list(range(start, start + len(bucket)))  # one int per id, shared by index, kids and callers
        if not bucket:
            return ids
        texts, labels, leafs, kids = zip(*bucket)
        height, index = self.height, self.index
        height.extend([1 + max([height[c] for c in ks]) if ks else 0 for ks in kids])
        self.prefix.extend([index.get((f, False, ks[:-1])) if ks else None for f, ks in zip(labels, kids)])
        index.update(zip(zip(labels, leafs, kids), ids))
        self.label.extend(labels)
        self.is_leaf.extend(leafs)
        self.kids.extend(kids)
        text.extend(texts)
        return ids

    def _texts(self) -> list:
        """The renderings, those ``drop_last_texts`` dropped made again."""
        text, label, kids = self.text, self.label, self.kids
        for i in range(len(text), len(label)):
            text.append(label[i] + "(" + ",".join([text[c] for c in kids[i]]) + ")" if kids[i] else label[i])
        return text


def check_bounds(max_size: int, max_arity=None) -> None:
    """Reject enumeration bounds that hold no tree."""
    if max_size < 1 or (max_arity or 0) < 0:
        raise ValueError(f"bounds need max_size >= 1 and max_arity >= 0, not ({max_size}, {max_arity})")


def enumerate_trees(table: SymbolTable, max_size: int, max_arity=None):
    """All trees with at most max_size nodes and node arities <= max_arity,
    each exactly once, ordered by (size, rendering); built one size at a time."""
    bank = TreeBank(table, max_arity)
    built: list = []
    for i in bank.trees(max_size):
        built.append(Tree(bank.label[i], tuple([built[c] for c in bank.kids[i]]), bank.is_leaf[i]))
        yield built[i]


def enumerate_contexts(table: SymbolTable, max_size: int, max_arity=None):
    """All contexts (exactly one hole) within the same bounds and order."""
    bank = TreeBank(table, max_arity)
    memo: dict = {}
    for i in bank.contexts(max_size):
        yield bank.tree(i, memo)


# ---------------------------------------------------------------------------
# Abstraction keys by id


class KeyParts:
    """The abstraction key of one kind for the trees of a bank, bottom-up.

    ``add(i)`` computes the parts of tree i from its children's, which must
    have been added before, and returns i's key over ids: two trees get
    equal keys exactly when ``abstraction_key`` gives them equal keys.
    Trees must be added in id order from 0, as ``TreeBank.trees`` yields
    them.  The parts are lists indexed by tree id: ``segments[j]`` holds
    the tree id of the depth-j root segment (None at depth 0); ``low``,
    ``forks`` and ``pieces[j]`` hold set ids, ``sets[id]`` being the
    frozenset of tree ids of the subtrees of height below ``low_height``,
    of the depth-``fork_depth`` forks, and of the embedded pieces of height
    below j.  Equal sets share one id, and a union already made over the
    same child sets is looked up, not made again.
    """

    def __init__(self, bank: TreeBank, kind):
        abstraction_key(HOLE_LEAF, kind)  # the per-tree key's ValueError for a bad kind
        self.bank = bank
        depth, self.low_height, self.fork_depth, piece_height = 0, None, None, 0
        if isinstance(kind, Definite):
            depth = kind.k
        elif isinstance(kind, ReverseDefinite):
            self.low_height = kind.k
        elif isinstance(kind, GenDefinite):
            self.low_height, depth = kind.h, kind.k
        elif isinstance(kind, LocTestable):
            self.low_height, self.fork_depth, depth = kind.k - 1, kind.k, kind.k
        else:
            piece_height = kind.k
        self.segments: list = [[] for _ in range(depth + 1)]
        self.low: list = []
        self.forks: list = []
        self.pieces: list = [[] for _ in range(piece_height + 1)]
        self.sets: list = [frozenset()]
        self._set_ids: dict = {frozenset(): 0}
        self._unions: dict = {}
        self._key = {
            Definite: (self.segments[depth],),
            ReverseDefinite: (self.low,),
            GenDefinite: (self.low, self.segments[depth]),
            LocTestable: (self.low, self.segments[depth - 1], self.forks),
            PwTestable: (self.pieces[piece_height],),
        }[type(kind)]

    def _set_id(self, s: frozenset) -> int:
        sid = self._set_ids.get(s)
        if sid is None:
            sid = self._set_ids[s] = len(self.sets)
            self.sets.append(s)
        return sid

    def _union(self, sids: tuple) -> int:
        """Set id of the union of the sets with these ids."""
        sid = self._unions.get(sids)
        if sid is None:
            sets = self.sets
            sid = self._unions[sids] = self._set_id(frozenset().union(*[sets[x] for x in sids]))
        return sid

    def add(self, i: int):
        bank = self.bank
        label, kids, h = bank.label[i], bank.kids[i], bank.height[i]
        index, sets = bank.index, self.sets
        segments = self.segments
        segments[0].append(None)
        for j in range(1, len(segments)):
            if h < j:
                seg = i
            elif j == 1:
                seg = index[(label, False, ())]
            else:
                below = segments[j - 1]
                seg = index[(label, False, tuple([below[c] for c in kids]))]
            segments[j].append(seg)
        if self.low_height is not None:
            low = self.low
            if h < self.low_height:
                low.append(self._set_id(frozenset([i]).union(*[sets[low[c]] for c in kids])))
            else:
                low.append(self._union(tuple([low[c] for c in kids])))
        if self.fork_depth is not None:
            forks = self.forks
            if h < self.fork_depth - 1:
                forks.append(0)
            else:
                top = segments[self.fork_depth][i]
                forks.append(self._set_id(frozenset([top]).union(*[sets[forks[c]] for c in kids])))
        pieces = self.pieces
        pieces[0].append(0)
        for j in range(1, len(pieces)):
            if not kids:
                pieces[j].append(self._set_id(frozenset([i])))
                continue
            memo_key = (label, tuple([pieces[j - 1][c] for c in kids]), tuple([pieces[j][c] for c in kids]))
            sid = self._unions.get(memo_key)
            if sid is None:
                nodes = [index[(label, False, combo)] for combo in _cartesian(*[sets[x] for x in memo_key[1]])]
                sid = self._unions[memo_key] = self._set_id(frozenset(nodes).union(*[sets[x] for x in memo_key[2]]))
            pieces[j].append(sid)
        key = self._key
        return key[0][i] if len(key) == 1 else tuple([part[i] for part in key])
