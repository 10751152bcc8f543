"""Complete deterministic Moore machines over small alphabets.

These machines compute the horizontal word functions of an algebra: a
machine reads a word of carrier elements and emits the per-state output
of the state it ends in.  Every machine is total by construction.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .partition import Partition


class MachineError(ValueError):
    pass


class WellDefinednessError(MachineError):
    """A quotient construction reached a state whose outputs span two classes."""

    def __init__(self, message, state_set=None, classes=None):
        super().__init__(message)
        self.state_set = state_set
        self.classes = classes


@dataclass(frozen=True)
class MooreMachine:
    """States, alphabet, start, total transition map, total output map."""

    states: tuple
    alphabet: tuple
    start: object
    delta: dict
    out: dict
    letters: frozenset = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "delta", dict(self.delta))
        object.__setattr__(self, "out", dict(self.out))
        object.__setattr__(self, "letters", frozenset(self.alphabet))
        qs, al = set(self.states), self.letters
        if len(qs) != len(self.states) or len(al) != len(self.alphabet):
            raise MachineError("duplicate state or letter")
        if self.start not in qs:
            raise MachineError(f"start state {self.start!r} not a state")
        for (q, a), q2 in self.delta.items():
            if q not in qs or a not in al:
                raise MachineError(f"transition from unknown ({q!r}, {a!r})")
            if q2 not in qs:
                raise MachineError(f"transition into unknown state {q2!r}")
        for q in self.states:
            for a in self.alphabet:
                if (q, a) not in self.delta:
                    raise MachineError(f"incomplete machine: no transition ({q!r}, {a!r})")
        if set(self.out) != qs:
            missing = qs - set(self.out)
            if missing:
                raise MachineError(f"no output for state {sorted(map(repr, missing))[0]}")
            raise MachineError("output map mentions unknown states")


def run_word(m: MooreMachine, word) -> object:
    """Output after reading the word from the start state; empty word allowed."""
    q = m.start
    letters = m.letters
    for a in word:
        if a not in letters:
            raise MachineError(f"letter {a!r} outside alphabet")
        q = m.delta[(q, a)]
    return m.out[q]


def reachable_with_witnesses(m: MooreMachine, letters=None):
    """BFS over the given letters (default: all); returns (states, witness words)."""
    letters = tuple(m.alphabet if letters is None else letters)
    order = [m.start]
    words = {m.start: ()}
    queue = deque([m.start])
    while queue:
        q = queue.popleft()
        for a in letters:
            q2 = m.delta[(q, a)]
            if q2 not in words:
                words[q2] = words[q] + (a,)
                order.append(q2)
                queue.append(q2)
    return tuple(order), words


def restrict_machine(m: MooreMachine, letters) -> MooreMachine:
    """Sub-machine over a sub-alphabet, cut down to its reachable states."""
    letters = tuple(letters)
    states, _ = reachable_with_witnesses(m, letters)
    delta = {(q, a): m.delta[(q, a)] for q in states for a in letters}
    out = {q: m.out[q] for q in states}
    return MooreMachine(states, letters, m.start, delta, out)


def _product_reach(machines, letters):
    """Breadth-first walk over the state tuples the machines reach together.

    Each letter is a tuple fed componentwise, one entry per machine.  Yields
    ``(states, word, successors)`` in discovery order: the state tuple, its
    shortest word of letters (ties broken by letter order), and its
    successor under each letter, in letter order.
    """
    deltas = [m.delta for m in machines]
    start = tuple(m.start for m in machines)
    words = {start: ()}
    queue = deque([start])
    while queue:
        qs = queue.popleft()
        word = words[qs]
        successors = []
        for letter in letters:
            nxt = tuple(map(dict.__getitem__, deltas, zip(qs, letter)))
            successors.append(nxt)
            if nxt not in words:
                words[nxt] = word + (letter,)
                queue.append(nxt)
        yield qs, word, successors


def tuple_product_machine(machines, alphabet) -> MooreMachine:
    """Synchronous product: letters are tuples fed componentwise.

    Restricted to the states reachable from the paired starts; outputs are
    the tuples of component outputs.
    """
    machines = list(machines)
    alphabet = tuple(alphabet)
    states = []
    delta = {}
    out = {}
    for qs, _, successors in _product_reach(machines, alphabet):
        states.append(qs)
        out[qs] = tuple(m.out[q] for m, q in zip(machines, qs))
        for letter, nxt in zip(alphabet, successors):
            delta[(qs, letter)] = nxt
    return MooreMachine(tuple(states), alphabet, states[0], delta, out)


def minimize_moore(m: MooreMachine) -> MooreMachine:
    """Unique minimal machine for the same word function, states renamed q0..qn
    in breadth-first order (so equivalent machines minimize identically)."""
    states, _ = reachable_with_witnesses(m)
    ids: dict = {}
    cls = {q: ids.setdefault(m.out[q], len(ids)) for q in states}
    while True:
        ids2: dict = {}
        nxt = {
            q: ids2.setdefault(
                (cls[q], tuple(cls[m.delta[(q, a)]] for a in m.alphabet)), len(ids2)
            )
            for q in states
        }
        if len(ids2) == len(set(cls.values())):
            break
        cls = nxt
    # canonical rename along BFS order of the quotient
    name: dict = {}
    order = []
    start_cls = cls[m.start]
    name[start_cls] = "q0"
    order.append((start_cls, m.start))
    queue = deque([m.start])
    seen = {start_cls}
    while queue:
        q = queue.popleft()
        for a in m.alphabet:
            q2 = m.delta[(q, a)]
            if cls[q2] not in seen:
                seen.add(cls[q2])
                name[cls[q2]] = f"q{len(name)}"
                order.append((cls[q2], q2))
                queue.append(q2)
    new_states = tuple(name[c] for c, _ in order)
    delta = {}
    out = {}
    for c, q in order:
        out[name[c]] = m.out[q]
        for a in m.alphabet:
            delta[(name[c], a)] = name[cls[m.delta[(q, a)]]]
    return MooreMachine(new_states, m.alphabet, "q0", delta, out)


def machine_disagreement(m1: MooreMachine, m2: MooreMachine):
    """Shortest word on which the two machines output differently, else None."""
    if m1.letters != m2.letters:
        raise MachineError("alphabet mismatch")
    letters = tuple((a, a) for a in m1.alphabet)
    for (q1, q2), word, _ in _product_reach((m1, m2), letters):
        if m1.out[q1] != m2.out[q2]:
            return tuple(a for a, _ in word)
    return None


def machines_equivalent(m1: MooreMachine, m2: MooreMachine) -> bool:
    return machine_disagreement(m1, m2) is None


@dataclass(frozen=True)
class StateFunction:
    """A tabulated map on machine states (aligned with ``states`` order),
    together with one shortest witness word inducing it."""

    table: tuple
    witness: tuple


def transition_monoid(m: MooreMachine) -> tuple:
    """All state maps induced by words, closed under composition.

    Breadth-first over appended letters, so each map carries a shortest
    witness (ties broken by alphabet order).  Contains the identity.
    """
    pos = {q: i for i, q in enumerate(m.states)}
    letter_map = {
        a: tuple(m.delta[(q, a)] for q in m.states) for a in m.alphabet
    }
    identity = tuple(m.states)
    found = {identity: ()}
    order = [StateFunction(identity, ())]
    queue = deque([identity])
    while queue:
        cur = queue.popleft()
        for a in m.alphabet:
            lm = letter_map[a]
            nxt = tuple(lm[pos[q]] for q in cur)
            if nxt not in found:
                found[nxt] = found[cur] + (a,)
                order.append(StateFunction(nxt, found[nxt]))
                queue.append(nxt)
    return tuple(order)


def class_quotient_machine(
    m: MooreMachine, theta_alphabet: Partition, theta_output: Partition
) -> MooreMachine:
    """Machine over letter classes via the subset construction.

    A state is the set of m-states reachable by reading any representatives
    of a class word.  Raises WellDefinednessError when some reachable set
    carries outputs from two output classes (the partition is then not a
    congruence for this operation).  The result is minimized.
    """
    if set(theta_alphabet.universe) != set(m.alphabet):
        raise MachineError("alphabet partition over wrong universe")
    letters = tuple(theta_alphabet.class_name(b[0]) for b in theta_alphabet.blocks)
    blocks = {
        theta_alphabet.class_name(b[0]): b for b in theta_alphabet.blocks
    }
    start = frozenset((m.start,))
    states = [start]
    seen = {start}
    queue = deque([start])
    delta = {}
    while queue:
        s = queue.popleft()
        for cname in letters:
            nxt = frozenset(m.delta[(q, a)] for q in s for a in blocks[cname])
            delta[(s, cname)] = nxt
            if nxt not in seen:
                seen.add(nxt)
                states.append(nxt)
                queue.append(nxt)
    out = {}
    for s in states:
        classes = {theta_output.class_index(m.out[q]) for q in s}
        if len(classes) != 1:
            raise WellDefinednessError(
                "outputs of one reachable state set fall into two classes",
                state_set=s,
                classes=sorted(
                    {theta_output.class_name(m.out[q]) for q in s}
                ),
            )
        out[s] = theta_output.class_name(m.out[next(iter(s))])
    return minimize_moore(MooreMachine(tuple(states), letters, start, delta, out))
