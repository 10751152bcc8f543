"""Complete deterministic Moore machines over small alphabets.

These machines compute the horizontal word functions of an algebra: a
machine reads a word of carrier elements and emits the per-state output
of the state it ends in.  Every machine is total by construction.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field


class MachineError(ValueError):
    pass


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


def state_records(m: MooreMachine) -> dict:
    """Each state as a ``(row, output)`` pair, its row mapping a letter to the next pair."""
    records = {q: ({}, m.out[q]) for q in m.states}
    for (q, a), q2 in m.delta.items():
        records[q][0][a] = records[q2]
    return records


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


def machine_disagreement(m1: MooreMachine, m2: MooreMachine):
    """Shortest word on which the two machines output differently, else None."""
    if m1.letters != m2.letters:
        raise MachineError("alphabet mismatch")
    letters = tuple((a, a) for a in m1.alphabet)
    for (q1, q2), word, _ in _product_reach((m1, m2), letters):
        if m1.out[q1] != m2.out[q2]:
            return tuple(a for a, _ in word)
    return None


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
