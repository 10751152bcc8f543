"""Complete deterministic Moore machines over small alphabets.

These machines compute the horizontal word functions of an algebra: a
machine reads a word of carrier elements and emits the per-state output
of the state it ends in.  Every machine is total by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import getitem, itemgetter


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
        # every key lies in states x letters, so a full count means complete;
        # a short one is reported at its first missing pair
        if len(self.delta) != len(qs) * len(al):
            for q in self.states:
                for a in self.alphabet:
                    if (q, a) not in self.delta:
                        raise MachineError(f"incomplete machine: no transition ({q!r}, {a!r})")
        if set(self.out) != qs:
            missing = qs - set(self.out)
            if missing:
                raise MachineError(f"no output for state {sorted(map(repr, missing))[0]}")
            raise MachineError("output map mentions unknown states")

    @cached_property
    def columns(self) -> dict:
        """Each letter's column: the state it leads each state to."""
        cols: dict = {a: {} for a in self.alphabet}
        for (q, a), q2 in self.delta.items():
            cols[a][q] = q2
        return cols


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


def _state_walk(machines, start, words: dict, letters=None):
    """Breadth-first walk over state tuples from the tuple start.  Given one
    machine, every entry is one of its states and reads the same letter
    (the given letters, default all, in order).  Given a tuple of machines,
    entry i is a state of ``machines[i]``, and a letter is a tuple whose
    entry i that machine reads.  Yields ``(states, word)`` for each tuple,
    its word the shortest that leads there (ties broken by letter order),
    before walking on from it.  ``words`` maps each tuple met to its word; a
    caller walking from several starts shares it, so a tuple met before,
    with all it leads to, is not walked again.  A step reads each entry's
    next state off a column (``columns``): with one machine, one
    ``itemgetter`` of the tuple reads every letter's column."""
    if start in words:
        return
    if isinstance(machines, tuple):  # entry i steps by its letter's column of machines[i]
        cols = [m.columns for m in machines]
        moves = [(x, tuple(map(getitem, cols, x))) for x in letters]
        reader = lambda cur: lambda steps: tuple(map(getitem, steps, cur))  # noqa: E731
    else:  # every entry steps by the letter's one column
        moves = [(a, machines.columns[a]) for a in (machines.alphabet if letters is None else letters)]
        reader = lambda cur: itemgetter(*cur) if len(cur) > 1 else lambda col: (col[cur[0]],)  # noqa: E731
    words[start] = ()
    queue = [start]
    for cur in queue:  # grows as tuples are met
        word = words[cur]
        yield cur, word
        read = reader(cur)
        for a, step in moves:
            nxt = read(step)
            if nxt not in words:
                words[nxt] = word + (a,)
                queue.append(nxt)


def _breadth_first(start, row, letters) -> dict:
    """Each state reached from start, in breadth-first order, mapped to its shortest
    word (ties by letter order); ``row(q)`` is the state each letter leads q to."""
    words, queue = {start: ()}, [start]
    for q in queue:  # grows as states are met
        word = words[q]
        for a, q2 in zip(letters, row(q)):
            if q2 not in words:
                words[q2] = word + (a,)
                queue.append(q2)
    return words


def reachable_with_witnesses(m: MooreMachine):
    """BFS over the alphabet; returns (states, witness words)."""
    cols = [m.columns[a] for a in m.alphabet]
    words = _breadth_first(m.start, lambda q: [col[q] for col in cols], m.alphabet)
    return tuple(words), words


def machine_disagreement(m1: MooreMachine, m2: MooreMachine):
    """Shortest word on which the two machines output differently, else None."""
    if m1.letters != m2.letters:
        raise MachineError("alphabet mismatch")
    letters = [(a, a) for a in m1.alphabet]
    for (q1, q2), word in _state_walk((m1, m2), (m1.start, m2.start), {}, letters):
        if m1.out[q1] != m2.out[q2]:
            return tuple(a for a, _ in word)
    return None
