"""Finite algebras over unranked operator alphabets.

Each operator acts on the finite carrier through a word function given by
a complete Moore machine whose alphabet and outputs are the carrier.  The
module provides evaluation, generated closures, products, derived and
quotient algebras, congruence and morphism checks, and the unary
translations: the elementary ones, a lazy breadth-first walk over all of
them, and the tabulated monoid that walk collects.
"""

from __future__ import annotations

from collections import deque, namedtuple
from dataclasses import dataclass, field
from itertools import product
from operator import itemgetter

from .horizon import (
    MachineError,
    MooreMachine,
    _breadth_first,
    _state_walk,
    machine_disagreement,
    reachable_with_witnesses,
    run_word,
)
from .partition import Partition, element_label
from .trees import Tree

TRIVIAL_ELEMENT = "⊥"


class AlgebraError(ValueError):
    pass


class NotACongruenceError(AlgebraError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class RegularAlgebra:
    """Finite carrier plus one Moore machine per operator.

    Every machine must read exactly the carrier as its alphabet and emit
    carrier elements, which makes each operation a total word function.
    """

    elements: tuple
    sigma: tuple
    ops: dict

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        object.__setattr__(self, "sigma", tuple(self.sigma))
        object.__setattr__(self, "ops", dict(self.ops))
        if not self.elements:
            raise AlgebraError("carrier must be nonempty")
        if len(set(self.elements)) != len(self.elements):
            raise AlgebraError("duplicate carrier element")
        if not self.sigma or len(set(self.sigma)) != len(self.sigma):
            raise AlgebraError("operator alphabet must be nonempty and duplicate-free")
        if set(self.ops) != set(self.sigma):
            raise AlgebraError("need exactly one machine per operator")
        carrier = set(self.elements)
        for f, m in self.ops.items():
            if set(m.alphabet) != carrier:
                raise AlgebraError(f"machine for {f} reads a different alphabet")
            for q in m.states:
                if m.out[q] not in carrier:
                    raise AlgebraError(f"machine for {f} emits a non-carrier output")

    @staticmethod
    def _unchecked(elements: tuple, sigma: tuple, ops: dict) -> "RegularAlgebra":
        """Stored as given, with no copy or check, for callers that made it
        whole: distinct elements and operators, ``ops`` keyed by exactly
        these, each machine reading exactly the elements and emitting them."""
        alg = object.__new__(RegularAlgebra)
        alg.__dict__.update(elements=elements, sigma=sigma, ops=ops)
        return alg


def apply_symbol(alg: RegularAlgebra, f: str, word) -> object:
    """The operation of f on a word of carrier elements."""
    if f not in alg.ops:
        raise AlgebraError(f"unknown operator {f!r}")
    return run_word(alg.ops[f], word)


def eval_term(alg: RegularAlgebra, valuation: dict, t: Tree) -> object:
    """Value of a tree: leaves through the valuation, each node through the
    machine of its operator (as ``apply_symbol``).

    Post-order over [machine, state, child iterator] frames: a node's
    machine reads each child's value as soon as it is known, so faults are
    reported left to right, each where it is met.
    """
    ops = alg.ops
    frames = []
    m, q, kids = None, None, iter((t,))
    while True:
        for c in kids:
            if c.is_leaf:
                try:
                    v = valuation[c.label]
                except KeyError:
                    raise AlgebraError(f"leaf {c.label!r} has no value") from None
            else:
                m2 = ops.get(c.label)
                if m2 is None:
                    raise AlgebraError(f"unknown operator {c.label!r}")
                if c.children:
                    frames.append((m, q, kids))
                    m, q, kids = m2, m2.start, iter(c.children)
                    break
                v = m2.out[m2.start]
            if m is None:
                return v
            if v not in m.letters:
                raise MachineError(f"letter {v!r} outside alphabet")
            q = m.delta[(q, v)]
        else:
            v = m.out[q]
            m, q, kids = frames.pop()
            if m is None:
                return v
            if v not in m.letters:
                raise MachineError(f"letter {v!r} outside alphabet")
            q = m.delta[(q, v)]


def generated_closure(alg: RegularAlgebra, omega=None, seed=()) -> tuple:
    """Least omega-closed subset holding the seed, in carrier order (``_closure``)."""
    omega = tuple(alg.sigma if omega is None else omega)
    if not omega:
        raise AlgebraError("need at least one operator to close under")
    for f in omega:
        if f not in alg.ops:
            raise AlgebraError(f"unknown operator {f!r}")
    seed = set(seed)
    for a in seed - set(alg.elements):
        raise AlgebraError(f"seed element {element_label(a)} outside carrier")
    return _closure(alg.elements, [alg.ops[f] for f in omega], seed)[0]


def _closure(elements, machines, seed) -> tuple:
    """The elements the seed generates under the machines, in the order of
    ``elements``, and per machine each state it reaches over them (start
    first) mapped to its row, the state each of them leads it to.  A
    machine is anything with ``start``, ``delta[q, a]`` and ``out[q]``.

    Incremental: each start state gives its operator's constant (the empty
    word), and each state found keeps the row of the elements it has read,
    so a new element is read by the states already found and a new state
    reads every element found so far.  Each (state, letter) step is taken
    once, and no witness word is built.
    """
    found = set(seed)
    found.update(m.out[m.start] for m in machines)
    letters = [a for a in elements if a in found]
    reached = [{m.start: []} for m in machines]  # state -> row, in the order of letters
    grown = True
    while grown:
        grown = False
        for m, rows in zip(machines, reached):
            delta, out = m.delta, m.out
            for q, row in list(rows.items()):
                for a in letters[len(row):]:
                    q2 = delta[q, a]
                    row.append(q2)
                    if q2 not in rows:
                        rows[q2] = []
                        grown = True
                        if out[q2] not in found:
                            found.add(out[q2])
                            letters.append(out[q2])
    closed = tuple(a for a in elements if a in found)
    if letters != list(closed):  # two or more letters, in another order
        in_order = itemgetter(*map({a: j for j, a in enumerate(letters)}.__getitem__, closed))
        reached = [{q: in_order(row) for q, row in rows.items()} for rows in reached]
    return closed, reached


def _row_machine(m, rows: dict, letters, order=None) -> MooreMachine:
    """m over a closure's letters, cut to its states there, named in breadth-first
    order (``order``, when the caller has made that naming already)."""
    if order is None:
        order = _breadth_first(m.start, rows.__getitem__, letters)
    delta = {(q, a): q2 for q in order for a, q2 in zip(letters, rows[q])}
    return MooreMachine._unchecked(tuple(order), letters, m.start, delta, {q: m.out[q] for q in order})


class _Outputs(dict):
    """The outputs of machines run side by side, each computed once, when
    first looked up: a state and its output are tuples, one entry each."""

    def __init__(self, outs):
        self.outs = outs

    def __missing__(self, q):
        out = self[q] = tuple(map(dict.__getitem__, self.outs, q))
        return out


class _Product(dict):
    """Machines run side by side, in the shape ``_closure`` reads: states,
    letters and outputs are tuples, one entry per machine.  The product is
    its own ``delta``, each transition computed when looked up, not kept."""

    delta = property(lambda self: self)  # not an attribute: no reference cycle

    def __init__(self, machines):
        self.deltas, self.out = [m.delta for m in machines], _Outputs([m.out for m in machines])
        self.start = tuple(m.start for m in machines)

    def __missing__(self, key):
        return tuple(map(dict.__getitem__, self.deltas, zip(*key)))


def trivial_algebra(sigma) -> RegularAlgebra:
    """The one-element algebra over the given operators."""
    sigma = tuple(sigma)
    if not sigma or len(set(sigma)) != len(sigma):
        raise AlgebraError("operator alphabet must be nonempty and duplicate-free")
    m = MooreMachine._unchecked(("q0",), (TRIVIAL_ELEMENT,), "q0", {("q0", TRIVIAL_ELEMENT): "q0"}, {"q0": TRIVIAL_ELEMENT})
    return RegularAlgebra._unchecked((TRIVIAL_ELEMENT,), sigma, {f: m for f in sigma})


def g_product(kappa: dict, algebras) -> RegularAlgebra:
    """Product algebra with operators renamed through kappa.

    ``kappa`` maps each new operator to a tuple of one operator per factor;
    the carrier is the cartesian product of the factor carriers, and each
    machine is read off one ``_closure`` seeded with every tuple.  With no
    factors the canonical one-element algebra is returned.
    """
    algebras = list(algebras)
    sigma = tuple(kappa)
    if not sigma:
        raise AlgebraError("kappa must name at least one operator")
    if not algebras:
        return trivial_algebra(sigma)
    for g, fs in kappa.items():
        if len(tuple(fs)) != len(algebras):
            raise AlgebraError(f"kappa({g}) must pick one operator per factor")
        for f, a in zip(fs, algebras):
            if f not in a.ops:
                raise AlgebraError(f"kappa({g}) uses unknown operator {f!r}")
    carrier = tuple(product(*(a.elements for a in algebras)))
    machines = [_Product([a.ops[f] for f, a in zip(fs, algebras)]) for fs in kappa.values()]
    reached = _closure(carrier, machines, carrier)[1]
    ops = {g: _row_machine(m, rows, carrier) for g, m, rows in zip(sigma, machines, reached)}
    return RegularAlgebra._unchecked(carrier, sigma, ops)


def derived_algebra(iota: dict, alg: RegularAlgebra) -> RegularAlgebra:
    """Same carrier, operators renamed: the new f acts as iota(f) did."""
    sigma = tuple(iota)
    if not sigma:
        raise AlgebraError("operator alphabet must be nonempty and duplicate-free")
    for f, g in iota.items():
        if g not in alg.ops:
            raise AlgebraError(f"iota({f}) = {g!r} is not an operator of the algebra")
    return RegularAlgebra._unchecked(alg.elements, sigma, {f: alg.ops[iota[f]] for f in sigma})


@dataclass(frozen=True)
class GCongruence:
    """A compatible pair: a partition of the operators and one of the carrier."""

    sigma_part: Partition
    theta_part: Partition


def _related_pairs(elements, theta: Partition):
    return tuple(
        (a, b) for a in elements for b in elements if theta.related(a, b)
    )


def _pair_violation(mf: MooreMachine, mg: MooreMachine, letter_pairs, theta: Partition):
    """Search the two machines run over related letter pairs for a reachable
    output pair that is not theta-related; returns the witness word pair."""
    for (q1, q2), word in _state_walk((mf, mg), (mf.start, mg.start), {}, letter_pairs):
        if not theta.related(mf.out[q1], mg.out[q2]):
            return tuple(a for a, _ in word), tuple(b for _, b in word)
    return None


def is_congruence(alg: RegularAlgebra, theta: Partition):
    """Exact check by pair-machine reachability; returns (ok, witness).

    A witness is (f, g, (word1, word2)): two componentwise related words
    whose values end up in different classes.
    """
    if set(theta.universe) != set(alg.elements):
        raise AlgebraError("partition universe is not the carrier")
    pairs = _related_pairs(alg.elements, theta)
    for f in alg.sigma:
        w = _pair_violation(alg.ops[f], alg.ops[f], pairs, theta)
        if w is not None:
            return False, (f, f, w)
    return True, None


def is_g_congruence(alg: RegularAlgebra, gcong: GCongruence):
    """Like is_congruence but also across operators within one sigma block."""
    sigma_part, theta = gcong.sigma_part, gcong.theta_part
    if set(sigma_part.universe) != set(alg.sigma):
        raise AlgebraError("sigma partition universe is not the operator alphabet")
    if set(theta.universe) != set(alg.elements):
        raise AlgebraError("partition universe is not the carrier")
    pairs = _related_pairs(alg.elements, theta)
    for block in sigma_part.blocks:
        for i, f in enumerate(block):
            for g in block[i:]:
                w = _pair_violation(alg.ops[f], alg.ops[g], pairs, theta)
                if w is not None:
                    return False, (f, g, w)
    return True, None


def _refine(alg: RegularAlgebra, key, seed):
    """The coarsest congruence inside the partition by ``key`` of the
    elements the seed generates, with the final classes of the states the
    machines reach over them.

    Two elements are congruent iff no translation separates them relative
    to the starting partition.  A translation is a chain of wrappings
    a -> f(u a v), and f(u a v) is the output of f's machine after reading
    v from delta(q, a), where q is the state u reaches.  So the congruence
    is the greatest relation inside the key's classes that relates a and b
    only if delta(q, a) and delta(q, b) are equivalent for every operator
    and every reachable state q; two states of one machine are equivalent
    iff their outputs are congruent and every letter leads them to
    equivalent states.  Moore-style rounds refine elements and states
    together from the key's classes and one block per machine until
    nothing splits: each round costs elements times reached states, and
    there are at most as many rounds as elements and states.

    Elements and states are those one ``_closure`` of the seed reaches (all
    of them from the whole carrier).  States are numbered once, each with
    its row read off the closure's as successor numbers, one column per
    element; rounds work on int lists.  Returns theta and ``(columns, state
    classes, rows, outputs, starts, blocks)`` for ``_quotient`` and
    ``varieties.saturation_probe``, ``blocks[j]`` being the index of column
    j's block in theta.
    """
    elements, reached = _closure(alg.elements, [alg.ops[f] for f in alg.sigma], seed)
    col = {a: j for j, a in enumerate(elements)}
    state, rows, outs, starts = [], [], [], []
    for i, (f, reach) in enumerate(zip(alg.sigma, reached)):
        m, num = alg.ops[f], {q: k for k, q in enumerate(reach, len(rows))}
        starts.append(len(rows))
        state += [i] * len(reach)
        rows += [list(map(num.__getitem__, row)) for row in reach.values()]
        outs += [col[m.out[q]] for q in reach]
    # the classes of a row's (a column's) states in one call: one int if 1 long
    row_classes = [itemgetter(*row) for row in rows]
    column_classes = [itemgetter(*column) for column in zip(*rows)]
    elem = [key(a) for a in elements]
    count = len(set(elem)) + len(reached)
    while True:
        ids: dict = {}
        new_state = [
            ids.setdefault((c, elem[o], classes(state)), len(ids))
            for c, o, classes in zip(state, outs, row_classes)
        ]
        new_elem = [
            ids.setdefault((c, classes(state)), len(ids))
            for c, classes in zip(elem, column_classes)
        ]
        if len(ids) == count:
            first: dict = {}  # theta's blocks are in the order of their first columns
            blocks = [first.setdefault(c, len(first)) for c in elem]
            members: list = [[] for _ in first]
            for a, b in zip(elements, blocks):
                members[b].append(a)
            theta = Partition._canonical(elements, tuple(map(tuple, members)))
            return theta, (col, state, rows, outs, starts, blocks)
        elem, state, count = new_elem, new_state, len(ids)


class _ClassMachine:
    """A machine over class letters 0, 1, ... (``_class_algebra``): states
    0, 1, ... from the start 0, ``rows[q][a] == columns[a][q]`` the state
    letter a leads q to, and ``out[q]`` the class of q's output."""

    start = 0

    def __init__(self, rows: list, out: list):
        self.rows, self.out, self.columns, self.alphabet = rows, out, list(zip(*rows)), range(len(rows[0]))


_ClassAlgebra = namedtuple("_ClassAlgebra", "elements sigma ops")  # elements: the classes 0, 1, ...


def _class_algebra(alg: RegularAlgebra, theta: Partition, table) -> _ClassAlgebra:
    """The quotient by a congruence as int machines over its class letters,
    read off the rows and state classes ``_refine`` returned with it.

    At the fixpoint the state classes are the Moore equivalence of each
    machine with outputs mapped to carrier classes, so each class is one
    state of the minimal machine over class letters.  Class letter i is
    theta's block i, read through the column of its first element, and
    each machine numbers its classes in the breadth-first order (over
    class letters) that first meets them.  ``_quotient`` names them; the
    exact deciders read them as they are.
    """
    col, state, rows, outs, starts, _blocks = table  # theta's universe may order its blocks otherwise
    firsts = [col[b[0]] for b in theta.blocks]
    block = {col[a]: i for i, b in enumerate(theta.blocks) for a in b}  # column -> class
    ops = {}
    for f, start in zip(alg.sigma, starts):
        order, num = [start], {state[start]: 0}
        for s in order:  # grows as classes are met
            for j in firsts:
                if state[rows[s][j]] not in num:
                    num[state[rows[s][j]]] = len(num)
                    order.append(rows[s][j])
        ops[f] = _ClassMachine([[num[state[rows[s][j]]] for j in firsts] for s in order], [block[outs[s]] for s in order])
    return _ClassAlgebra(tuple(range(len(firsts))), alg.sigma, ops)


def _quotient(alg: RegularAlgebra, theta: Partition, table) -> RegularAlgebra:
    """The quotient by a congruence: the machines of ``_class_algebra``, class
    letter i named by theta's block i and state n named qn."""
    letters = tuple(theta.class_name(b[0]) for b in theta.blocks)
    if len(set(letters)) != len(letters):  # distinct elements may share a label
        raise MachineError("duplicate state or letter")
    ops = {}
    for f, m in _class_algebra(alg, theta, table).ops.items():
        names = [f"q{n}" for n in range(len(m.rows))]
        delta = {(q, a): names[n] for q, row in zip(names, m.rows) for a, n in zip(letters, row)}
        out = {q: letters[o] for q, o in zip(names, m.out)}
        ops[f] = MooreMachine._unchecked(tuple(names), letters, "q0", delta, out)
    return RegularAlgebra._unchecked(letters, alg.sigma, ops)


def quotient_algebra(alg: RegularAlgebra, theta: Partition) -> RegularAlgebra:
    """Carrier classes, one quotient machine per operator.

    Refinement from theta's classes ends at theta itself exactly when
    theta is a congruence; otherwise the witness of ``is_congruence``
    names the first operator that splits a class.
    """
    if set(theta.universe) != set(alg.elements):
        raise AlgebraError("partition universe is not the carrier")
    refined, table = _refine(alg, theta.class_index, alg.elements)
    if refined.block_count != theta.block_count:
        witness = is_congruence(alg, theta)[1]
        raise NotACongruenceError(
            f"theta is not a congruence for {witness[0]}", witness
        )
    return _quotient(alg, theta, table)


def _operator_classes(quot: RegularAlgebra) -> Partition:
    """Operators of a quotient algebra grouped by equal machines.

    Each machine of ``_quotient`` is minimal over the class letters and
    names its states in breadth-first order, so two operators compute the
    same word function on classes exactly when their machines are equal
    as data.  Modulo a congruence theta, that is when related words always
    give related values under both operators.
    """
    def key(f):
        m = quot.ops[f]
        return (m.states, m.start, tuple(m.delta.items()), tuple(m.out.items()))

    return Partition.from_key(quot.sigma, key)


def _merge_operators(quot: RegularAlgebra, sigma_part: Partition) -> RegularAlgebra:
    """One operator per block, named by its class, acting as the block's
    first operator does."""
    ops = {sigma_part.class_name(b[0]): quot.ops[b[0]] for b in sigma_part.blocks}
    return RegularAlgebra._unchecked(quot.elements, tuple(ops), ops)


def m_operator(alg: RegularAlgebra, theta: Partition) -> Partition:
    """Greatest operator equivalence compatible with a congruence: the
    operators whose machines in ``quotient_algebra(alg, theta)`` are equal
    (see ``_operator_classes``).  A theta that is not a congruence is
    refused as ``quotient_algebra`` refuses it, with the same witness."""
    return _operator_classes(quotient_algebra(alg, theta))


def g_quotient(alg: RegularAlgebra, gcong: GCongruence) -> RegularAlgebra:
    """Quotient by a compatible pair: merge carrier classes and operators.

    The operators of one block must have equal quotient machines; the
    first disagreement found is the refusal's witness.  Each block then
    keeps its first operator's machine under the block's class name.
    """
    sigma_part, theta = gcong.sigma_part, gcong.theta_part
    base = quotient_algebra(alg, theta)
    for block in sigma_part.blocks:
        first = base.ops[block[0]]
        for g in block[1:]:
            w = machine_disagreement(first, base.ops[g])
            if w is not None:
                raise NotACongruenceError(
                    f"operators {block[0]} and {g} disagree on class word", (block[0], g, w)
                )
    return _merge_operators(base, sigma_part)


def verify_algebra_gmorphism(
    src: RegularAlgebra, dst: RegularAlgebra, iota: dict, phi: dict
):
    """Exact morphism check; returns (ok, witness).

    For each operator f we run f's machine on a letter a beside iota(f)'s
    machine on phi(a), comparing "apply f then map the value" against "map
    the letters then apply iota(f)".  A witness is (f, word) where they
    disagree.
    """
    if set(iota) != set(src.sigma):
        raise AlgebraError("iota must cover exactly the source operators")
    if set(phi) != set(src.elements):
        raise AlgebraError("phi must cover exactly the source carrier")
    for f, g in iota.items():
        if g not in dst.ops:
            raise AlgebraError(f"iota({f}) = {g!r} not an operator of the target")
    dst_carrier = set(dst.elements)
    for a, b in phi.items():
        if b not in dst_carrier:
            raise AlgebraError(f"phi({element_label(a)}) outside the target carrier")
    for f in src.sigma:
        m1, m2 = src.ops[f], dst.ops[iota[f]]
        letters = [(a, phi[a]) for a in m1.alphabet]
        for (q1, q2), word in _state_walk((m1, m2), (m1.start, m2.start), {}, letters):
            if phi[m1.out[q1]] != m2.out[q2]:
                return False, (f, tuple(a for a, _ in word))
    return True, None


def kernel(src: RegularAlgebra, iota: dict, phi: dict) -> GCongruence:
    """Kernel pair of a morphism: group operators and elements by image."""
    return GCongruence(
        Partition.from_key(src.sigma, iota.__getitem__),
        Partition.from_key(src.elements, phi.__getitem__),
    )


# ---------------------------------------------------------------------------
# Translations


@dataclass(frozen=True)
class Translation:
    """A unary map on the carrier, tabulated in carrier order.

    ``provenance`` is a word of elementary descriptors (f, u, v), each
    meaning "wrap the argument as f(u . arg . v)", applied left to right;
    the empty word is the identity.
    """

    table: tuple
    provenance: tuple


@dataclass(frozen=True)
class TranslationMonoid:
    elements: tuple
    members: tuple
    elementary: dict
    pos: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "pos", {a: i for i, a in enumerate(self.elements)})

    def index(self, a) -> int:
        return self.pos[a]

    def apply(self, tr: Translation, a):
        return tr.table[self.pos[a]]

    def compose(self, p: Translation, q: Translation) -> Translation:
        """First p, then q."""
        pos = self.pos
        return Translation(
            tuple(q.table[pos[b]] for b in p.table), p.provenance + q.provenance
        )

    def identity(self) -> Translation:
        return self.members[0]


def elementary_translations(alg: RegularAlgebra, f: str):
    """Every map a -> f(u a v) for the operator f, once each, lazily: per
    reachable state q of f's machine (u its witness word), a breadth-first
    search (``horizon._state_walk``) over the tuples of states the letters
    lead q to, each then reading v (letters in alphabet order), a tuple
    read through the outputs being one map.  It finds each tuple by its
    shortlex-least word, so a map keeps its least (q, v), and maps come in
    that order.  No transition monoid is listed."""
    m = alg.ops[f]
    cols, out = m.columns, m.out
    states, witness = reachable_with_witnesses(m)
    found, searched = set(), {}
    for q in states:
        row = [cols[a][q] for a in alg.elements]
        start = tuple(dict.fromkeys(row))  # the distinct states, searched as one tuple
        spread = tuple([start.index(p) for p in row])
        # a tuple an earlier search met, with this spread, gives no new map
        for cur, v in _state_walk(m, start, searched.setdefault(spread, {})):
            table = tuple([out[cur[i]] for i in spread])
            if table not in found:
                found.add(table)
                yield Translation(table, ((f, witness[q], v),))


def translation_walk(alg: RegularAlgebra, elementary: dict | None = None):
    """Every translation once, lazily: the identity first, then breadth-first
    compositions with the elementary translations (operators in ``sigma``
    order), each map with the provenance word of its first discovery.

    The walk can be exponentially long (the monoid is a transformation
    monoid of the carrier); a caller that stops early pays for the prefix
    only, even in the first layer: the elementary translations, pulled one
    at a time from ``elementary`` (per operator; ``elementary_translations``
    by default, which finds them lazily).
    """
    if elementary is None:
        elementary = {f: elementary_translations(alg, f) for f in alg.sigma}
    pos = {a: i for i, a in enumerate(alg.elements)}
    ident = Translation(tuple(alg.elements), ())
    found = {ident.table}
    yield ident
    gens, queue = [], deque()
    for f in alg.sigma:
        for e in elementary[f]:
            gens.append((e.table, e.provenance))
            if e.table not in found:
                found.add(e.table)
                queue.append(e)
                yield e
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


def translations(alg: RegularAlgebra) -> TranslationMonoid:
    """The monoid of all translations, tabulated with provenance words in
    the order of ``translation_walk``."""
    elementary = {f: tuple(elementary_translations(alg, f)) for f in alg.sigma}
    members = tuple(translation_walk(alg, elementary))
    return TranslationMonoid(alg.elements, members, elementary)


def describe_translation(tm: TranslationMonoid, tr: Translation) -> str:
    """Printable form: the map plus how to build it from one-hole wrappings."""
    mapping = ", ".join(
        f"{element_label(a)}->{element_label(b)}" for a, b in zip(tm.elements, tr.table)
    )
    if not tr.provenance:
        return f"{mapping} (identity)"
    steps = "; then ".join(
        f"{f}: u=\"{' '.join(map(element_label, u))}\", v=\"{' '.join(map(element_label, v))}\""
        for f, u, v in tr.provenance
    )
    return f"{mapping} (via {steps})"
