"""Partitions of finite ordered sets, kept in a canonical block order."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


def element_label(x) -> str:
    """Readable label for a carrier element; tuples render as ``(a,b)``."""
    if isinstance(x, tuple):
        return "(" + ",".join(element_label(c) for c in x) + ")"
    return str(x)


@dataclass(frozen=True)
class Partition:
    """A partition of ``universe`` into disjoint, covering blocks.

    Each block lists its members in universe order and blocks are ordered
    by their first member, so equal partitions compare equal structurally.
    Use the ``from_*`` constructors; they canonicalize arbitrary input.
    """

    universe: tuple
    blocks: tuple

    def __post_init__(self):
        pos = {x: i for i, x in enumerate(self.universe)}
        if len(pos) != len(self.universe):
            raise ValueError("universe has duplicate elements")
        seen = set()
        for block in self.blocks:
            if not block:
                raise ValueError("empty block")
            for x in block:
                if x not in pos:
                    raise ValueError(f"block element {element_label(x)} outside universe")
                if x in seen:
                    raise ValueError(f"element {element_label(x)} occurs in two blocks")
                seen.add(x)
            if list(block) != sorted(block, key=pos.__getitem__):
                raise ValueError("block members not in universe order")
        if len(seen) != len(self.universe):
            raise ValueError("blocks do not cover the universe")
        firsts = [pos[b[0]] for b in self.blocks]
        if firsts != sorted(firsts):
            raise ValueError("blocks not in canonical order")

    @staticmethod
    def _canonical(universe: tuple, blocks: tuple) -> "Partition":
        """Distinct elements grouped in universe order, as ``from_key``
        groups them, taken as canonical without a check."""
        p = object.__new__(Partition)
        object.__setattr__(p, "universe", universe)
        object.__setattr__(p, "blocks", blocks)
        return p

    @staticmethod
    def from_blocks(universe, blocks) -> "Partition":
        universe = tuple(universe)
        pos = {x: i for i, x in enumerate(universe)}
        canon = [tuple(sorted(set(b), key=pos.__getitem__)) for b in blocks if b]
        canon.sort(key=lambda b: pos[b[0]])
        return Partition(universe, tuple(canon))

    @staticmethod
    def from_key(universe, key) -> "Partition":
        """Group the universe by a key function (in universe order: canonical)."""
        universe = tuple(universe)
        groups: dict = {}
        for x in universe:
            groups.setdefault(key(x), []).append(x)
        return Partition(universe, tuple(map(tuple, groups.values())))

    @staticmethod
    def discrete(universe) -> "Partition":
        return Partition.from_blocks(universe, [[x] for x in universe])

    @staticmethod
    def universal(universe) -> "Partition":
        universe = tuple(universe)
        return Partition.from_blocks(universe, [universe] if universe else [])

    @cached_property
    def _block_index(self) -> dict:
        return {x: i for i, b in enumerate(self.blocks) for x in b}

    def class_index(self, x) -> int:
        return self._block_index[x]

    def class_of(self, x) -> tuple:
        return self.blocks[self._block_index[x]]

    def rep(self, x):
        """Canonical representative: the first member of x's block."""
        return self.class_of(x)[0]

    def class_name(self, x) -> str:
        return "[" + element_label(self.rep(x)) + "]"

    def related(self, a, b) -> bool:
        return self._block_index[a] == self._block_index[b]

    def refines(self, other: "Partition") -> bool:
        """True iff every block of self lies inside a block of other."""
        return all(
            len({other.class_index(x) for x in block}) == 1 for block in self.blocks
        )

    def intersect(self, other: "Partition") -> "Partition":
        """Coarsest common refinement (intersection of the two equivalences)."""
        if self.universe != other.universe:
            raise ValueError("partitions over different universes")
        return Partition.from_key(
            self.universe, lambda x: (self.class_index(x), other.class_index(x))
        )

    @property
    def is_discrete(self) -> bool:
        return all(len(b) == 1 for b in self.blocks)

    @property
    def is_universal(self) -> bool:
        return len(self.blocks) <= 1

    @property
    def block_count(self) -> int:
        return len(self.blocks)
