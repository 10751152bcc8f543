"""Finite algebras over unranked operator alphabets.

Each operator acts on the finite carrier through a word function given by
a complete Moore machine whose alphabet and outputs are the carrier.  The
module provides evaluation, generated closures, products, derived and
quotient algebras, congruence and morphism checks, and the unary
translations: the elementary ones, a lazy breadth-first walk over all of
them, and the tabulated monoid that walk collects.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .horizon import (
    MachineError,
    MooreMachine,
    _product_reach,
    machine_disagreement,
    reachable_with_witnesses,
    restrict_machine,
    run_word,
    transition_monoid,
    tuple_product_machine,
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
    """Least subset containing the seed and closed under the omega operations.

    Closure is computed by repeatedly collecting the outputs of all machine
    states reachable over the current subset; note the empty word always
    contributes each operator's constant.
    """
    omega = tuple(alg.sigma if omega is None else omega)
    if not omega:
        raise AlgebraError("need at least one operator to close under")
    for f in omega:
        if f not in alg.ops:
            raise AlgebraError(f"unknown operator {f!r}")
    current = set(seed)
    carrier = set(alg.elements)
    for a in current:
        if a not in carrier:
            raise AlgebraError(f"seed element {element_label(a)} outside carrier")
    changed = True
    while changed:
        changed = False
        letters = [a for a in alg.elements if a in current]
        for f in omega:
            states, _ = reachable_with_witnesses(alg.ops[f], letters)
            for q in states:
                b = alg.ops[f].out[q]
                if b not in current:
                    current.add(b)
                    changed = True
    return tuple(a for a in alg.elements if a in current)


def subalgebra(alg: RegularAlgebra, subset) -> RegularAlgebra:
    """Restriction to a closed subset (machines cut to the sub-alphabet)."""
    keep = set(subset)
    sub = tuple(a for a in alg.elements if a in keep)
    if generated_closure(alg, alg.sigma, sub) != sub:
        raise AlgebraError("subset is not closed under the operations")
    ops = {f: restrict_machine(alg.ops[f], sub) for f in alg.sigma}
    return RegularAlgebra(sub, alg.sigma, ops)


def trivial_algebra(sigma) -> RegularAlgebra:
    """The one-element algebra over the given operators."""
    sigma = tuple(sigma)
    m = MooreMachine(
        ("q0",),
        (TRIVIAL_ELEMENT,),
        "q0",
        {("q0", TRIVIAL_ELEMENT): "q0"},
        {"q0": TRIVIAL_ELEMENT},
    )
    return RegularAlgebra((TRIVIAL_ELEMENT,), sigma, {f: m for f in sigma})


def g_product(kappa: dict, algebras) -> RegularAlgebra:
    """Product algebra with operators renamed through kappa.

    ``kappa`` maps each new operator to a tuple of one operator per factor;
    the carrier is the cartesian product of the factor carriers.  With no
    factors the canonical one-element algebra is returned.
    """
    algebras = list(algebras)
    sigma = tuple(kappa)
    if not sigma:
        raise AlgebraError("kappa must name at least one operator")
    if not algebras:
        return trivial_algebra(sigma)
    from itertools import product as _cartesian

    for g, fs in kappa.items():
        if len(tuple(fs)) != len(algebras):
            raise AlgebraError(f"kappa({g}) must pick one operator per factor")
        for f, a in zip(fs, algebras):
            if f not in a.ops:
                raise AlgebraError(f"kappa({g}) uses unknown operator {f!r}")
    carrier = tuple(_cartesian(*(a.elements for a in algebras)))
    ops = {}
    for g, fs in kappa.items():
        machines = [a.ops[f] for f, a in zip(fs, algebras)]
        ops[g] = tuple_product_machine(machines, carrier)
    return RegularAlgebra(carrier, sigma, ops)


def derived_algebra(iota: dict, alg: RegularAlgebra) -> RegularAlgebra:
    """Same carrier, operators renamed: the new f acts as iota(f) did."""
    sigma = tuple(iota)
    for f, g in iota.items():
        if g not in alg.ops:
            raise AlgebraError(f"iota({f}) = {g!r} is not an operator of the algebra")
    return RegularAlgebra(alg.elements, sigma, {f: alg.ops[iota[f]] for f in sigma})


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
    for (q1, q2), word, _ in _product_reach((mf, mg), letter_pairs):
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


def m_operator(alg: RegularAlgebra, theta: Partition) -> Partition:
    """Greatest operator equivalence compatible with a given congruence.

    Two operators are merged iff feeding them componentwise related words
    always yields related values; pairwise compatibility is transitive
    here because theta is a congruence, so the result is an equivalence.
    """
    ok, witness = is_congruence(alg, theta)
    if not ok:
        raise NotACongruenceError("theta is not a congruence", witness)
    pairs = _related_pairs(alg.elements, theta)
    merged = []
    for i, f in enumerate(alg.sigma):
        for g in alg.sigma[i + 1 :]:
            if _pair_violation(alg.ops[f], alg.ops[g], pairs, theta) is None:
                merged.append((f, g))
    return Partition.from_pairs(alg.sigma, merged)


def _refine(alg: RegularAlgebra, key):
    """The coarsest congruence inside the partition of the carrier by
    ``key``, with the final classes of the machines' reachable states.

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
    nothing splits: each round costs carrier size times reachable states,
    and there are at most as many rounds as elements and states.

    States count as reachable over every carrier letter, so the result is
    right for untrimmed algebras too.  The state classes are keyed by
    (index of the operator in ``sigma``, state).
    """
    elements = alg.elements
    machines = []
    for f in alg.sigma:
        m = alg.ops[f]
        states, _ = reachable_with_witnesses(m)
        machines.append((m, states))
    elem = {a: key(a) for a in elements}
    state = {(i, q): i for i, (_m, states) in enumerate(machines) for q in states}
    count = len(set(elem.values())) + len(machines)
    while True:
        ids: dict = {}
        new_state = {
            (i, q): ids.setdefault(
                (
                    state[(i, q)],
                    elem[m.out[q]],
                    tuple(state[(i, m.delta[(q, c)])] for c in elements),
                ),
                len(ids),
            )
            for i, (m, states) in enumerate(machines)
            for q in states
        }
        new_elem = {
            a: ids.setdefault(
                (
                    elem[a],
                    tuple(
                        state[(i, m.delta[(q, a)])]
                        for i, (m, states) in enumerate(machines)
                        for q in states
                    ),
                ),
                len(ids),
            )
            for a in elements
        }
        if len(ids) == count:
            return Partition.from_key(elements, elem.__getitem__), state
        elem, state, count = new_elem, new_state, len(ids)


def _quotient(alg: RegularAlgebra, theta: Partition, state_classes) -> RegularAlgebra:
    """The quotient by a congruence, read off the state classes ``_refine``
    returned with it.

    At the fixpoint the state classes are the Moore equivalence of each
    machine with outputs mapped to carrier classes, so each class is one
    state of the minimal machine over class letters.  A class letter is
    read through the first element of its block, and states are named
    q0, q1, ... in the breadth-first order that first meets each class.
    """
    firsts = tuple(b[0] for b in theta.blocks)
    name = {a: theta.class_name(a) for a in firsts}
    letters = tuple(name.values())
    ops = {}
    for i, f in enumerate(alg.sigma):
        m = alg.ops[f]
        reps: dict = {}
        for q in reachable_with_witnesses(m, firsts)[0]:
            reps.setdefault(state_classes[(i, q)], q)
        qname = {c: f"q{n}" for n, c in enumerate(reps)}
        delta = {
            (qname[c], name[a]): qname[state_classes[(i, m.delta[(q, a)])]]
            for c, q in reps.items()
            for a in firsts
        }
        out = {qname[c]: theta.class_name(m.out[q]) for c, q in reps.items()}
        ops[f] = MooreMachine(tuple(qname.values()), letters, "q0", delta, out)
    return RegularAlgebra(letters, alg.sigma, ops)


def quotient_algebra(alg: RegularAlgebra, theta: Partition) -> RegularAlgebra:
    """Carrier classes, one quotient machine per operator.

    Refinement from theta's classes ends at theta itself exactly when
    theta is a congruence; otherwise the witness of ``is_congruence``
    names the first operator that splits a class.
    """
    if set(theta.universe) != set(alg.elements):
        raise AlgebraError("partition universe is not the carrier")
    refined, state_classes = _refine(alg, theta.class_index)
    if refined.block_count != theta.block_count:
        witness = is_congruence(alg, theta)[1]
        raise NotACongruenceError(
            f"theta is not a congruence for {witness[0]}", witness
        )
    return _quotient(alg, theta, state_classes)


def g_quotient(alg: RegularAlgebra, gcong: GCongruence) -> RegularAlgebra:
    """Quotient by a compatible pair: merge carrier classes and operators.

    All machines inside one operator block must agree as word functions on
    classes; this is verified and is exactly well-definedness.
    """
    sigma_part, theta = gcong.sigma_part, gcong.theta_part
    base = quotient_algebra(alg, theta)
    sigma = tuple(sigma_part.class_name(b[0]) for b in sigma_part.blocks)
    ops = {}
    for block in sigma_part.blocks:
        first = base.ops[block[0]]
        for g in block[1:]:
            w = machine_disagreement(first, base.ops[g])
            if w is not None:
                raise NotACongruenceError(
                    f"operators {block[0]} and {g} disagree on class word", (block[0], g, w)
                )
        ops[sigma_part.class_name(block[0])] = first
    return RegularAlgebra(base.elements, sigma, ops)


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
        letters = tuple((a, phi[a]) for a in m1.alphabet)
        for (q1, q2), word, _ in _product_reach((m1, m2), letters):
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


def elementary_translations(alg: RegularAlgebra, f: str) -> tuple:
    """All maps a -> f(u a v) for the operator f, without enumerating words.

    A pair (reachable state, transition-monoid element) of f's machine
    stands for all (u, v) with those effects, so the set of maps is found
    without listing words; each map keeps one shortest witness pair.  Their
    number is at most the reachable states times the transition monoid.
    """
    m = alg.ops[f]
    states, witness = reachable_with_witnesses(m)
    monoid = transition_monoid(m)
    pos = {q: i for i, q in enumerate(m.states)}
    found = {}
    for q in states:
        for g in monoid:
            table = tuple(
                m.out[g.table[pos[m.delta[(q, a)]]]] for a in alg.elements
            )
            if table not in found:
                found[table] = Translation(table, ((f, witness[q], g.witness),))
    return tuple(found.values())


def translation_walk(alg: RegularAlgebra, elementary: dict | None = None):
    """Every translation once, lazily: the identity first, then breadth-first
    compositions with the elementary translations (operators in ``sigma``
    order), each map with the provenance word of its first discovery.

    The walk can be exponentially long (the monoid is a transformation
    monoid of the carrier); a caller that stops early pays for the prefix
    only.  ``elementary`` is the per-operator result of
    ``elementary_translations``, computed here when not given.
    """
    if elementary is None:
        elementary = {f: elementary_translations(alg, f) for f in alg.sigma}
    gens = [(e.table, e.provenance) for f in alg.sigma for e in elementary[f]]
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


def translations(alg: RegularAlgebra) -> TranslationMonoid:
    """The monoid of all translations, tabulated with provenance words in
    the order of ``translation_walk``."""
    elementary = {f: elementary_translations(alg, f) for f in alg.sigma}
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
