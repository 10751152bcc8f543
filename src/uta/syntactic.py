"""Syntactic congruences and (reduced) syntactic algebras of carrier subsets."""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    Partition,
    RegularAlgebra,
    _merge_operators,
    _operator_classes,
    _quotient,
    _refine,
)


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
    """The coarsest congruence saturating the subset, by partition refinement
    from {subset, rest} (see ``algebra._refine``)."""
    return _refine(alg, frozenset(subset).__contains__, alg.elements)[0]


def is_disjunctive(alg: RegularAlgebra, subset) -> bool:
    """True iff the subset's syntactic congruence is the identity."""
    return syntactic_congruence(alg, subset).is_discrete


def syntactic_algebra(alg: RegularAlgebra, subset) -> SyntacticResult:
    return _syntactic(alg, frozenset(subset), alg.elements)


def _syntactic(alg: RegularAlgebra, H: frozenset, seed) -> SyntacticResult:
    """The syntactic algebra of H among the elements the seed generates (the
    rest of H is left out): one ``_refine``, the quotient read off its rows."""
    theta, table = _refine(alg, H.__contains__, seed)
    quot = _quotient(alg, theta, table)
    morphism = {a: quot.elements[theta.class_index(a)] for a in theta.universe}
    return SyntacticResult(
        theta=theta,
        algebra=quot,
        morphism=morphism,
        finals_image=frozenset(morphism[a] for a in theta.universe if a in H),
    )


def reduced_syntactic(alg: RegularAlgebra, subset) -> SyntacticResult:
    """Syntactic algebra plus the reduced one: operators whose quotient
    machines are equal act alike modulo theta, so they are grouped into
    ``sigma`` and merged into ``reduced``, with ``iota`` naming each
    operator's class (see ``algebra._operator_classes``)."""
    res = syntactic_algebra(alg, subset)
    res.sigma = _operator_classes(res.algebra)
    res.reduced = _merge_operators(res.algebra, res.sigma)
    res.iota = {f: res.sigma.class_name(f) for f in alg.sigma}
    return res
