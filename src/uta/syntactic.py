"""Syntactic congruences and (reduced) syntactic algebras of carrier subsets."""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    GCongruence,
    Partition,
    RegularAlgebra,
    _quotient,
    _refine,
    g_quotient,
    m_operator,
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
    return _refine(alg, frozenset(subset).__contains__)[0]


def is_disjunctive(alg: RegularAlgebra, subset) -> bool:
    """True iff the subset's syntactic congruence is the identity."""
    return syntactic_congruence(alg, subset).is_discrete


def syntactic_algebra(alg: RegularAlgebra, subset) -> SyntacticResult:
    H = frozenset(subset)
    theta, state_classes = _refine(alg, H.__contains__)
    quot = _quotient(alg, theta, state_classes)
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
