"""Syntactic congruences and (reduced) syntactic algebras of carrier subsets."""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    GCongruence,
    Partition,
    RegularAlgebra,
    m_operator,
    g_quotient,
    quotient_algebra,
)
from .horizon import reachable_with_witnesses


@dataclass
class SyntacticResult:
    """Everything the syntactic construction yields for a subset H.

    ``theta`` is the coarsest congruence saturating H, ``algebra`` the
    quotient by it, ``morphism`` the element-to-class map.  The reduced
    fields additionally merge operators that act alike modulo theta.
    """

    theta: Partition
    algebra: RegularAlgebra
    morphism: dict
    finals_image: frozenset
    sigma: Partition | None = None
    reduced: RegularAlgebra | None = None
    iota: dict | None = None


def syntactic_congruence(alg: RegularAlgebra, subset) -> Partition:
    """The coarsest congruence saturating the subset, by partition refinement.

    Two elements are congruent iff no translation separates them relative
    to the subset.  A translation is a chain of wrappings a -> f(u a v),
    and f(u a v) is the output of f's machine after reading v from
    delta(q, a), where q is the state u reaches.  So the congruence is the
    greatest relation that splits the subset from the rest and relates a
    and b only if delta(q, a) and delta(q, b) are equivalent for every
    operator and every reachable state q; two states of one machine are
    equivalent iff their outputs are congruent and every letter leads them
    to equivalent states.  Moore-style rounds refine elements and states
    together from {subset, rest} and one block per machine until nothing
    splits: each round costs carrier size times reachable states, and
    there are at most as many rounds as elements and states.

    States count as reachable over every carrier letter, so the result is
    right for untrimmed algebras too.
    """
    H = frozenset(subset)
    elements = alg.elements
    machines = []
    for f in alg.sigma:
        m = alg.ops[f]
        states, _ = reachable_with_witnesses(m)
        machines.append((m, states))
    elem = {a: a in H for a in elements}
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
            return Partition.from_key(elements, elem.__getitem__)
        elem, state, count = new_elem, new_state, len(ids)


def is_disjunctive(alg: RegularAlgebra, subset) -> bool:
    """True iff the subset's syntactic congruence is the identity."""
    return syntactic_congruence(alg, subset).is_discrete


def syntactic_algebra(alg: RegularAlgebra, subset) -> SyntacticResult:
    H = frozenset(subset)
    theta = syntactic_congruence(alg, H)
    quot = quotient_algebra(alg, theta)
    morphism = {a: theta.class_name(a) for a in alg.elements}
    return SyntacticResult(
        theta=theta,
        algebra=quot,
        morphism=morphism,
        finals_image=frozenset(morphism[a] for a in H),
    )


def reduced_syntactic(alg: RegularAlgebra, subset) -> SyntacticResult:
    """Syntactic algebra plus the operator-merged (reduced) quotient."""
    H = frozenset(subset)
    res = syntactic_algebra(alg, H)
    sigma = m_operator(alg, res.theta)
    res.sigma = sigma
    res.reduced = g_quotient(alg, GCongruence(sigma, res.theta))
    res.iota = {f: sigma.class_name(f) for f in alg.sigma}
    return res
