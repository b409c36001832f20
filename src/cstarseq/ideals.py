"""Ideals on the natural numbers with certificate-backed membership.

Subsets of N are represented at desk scale as a finite window over
``[1..N]`` plus a *tail certificate* describing the set beyond the window.
The window is a read-only numpy bool mask of length N (``mask[n - 1]`` says
whether n is a member), so building a set, complement, union, intersection
and difference are vector operations, linear in N with no Python loop over
the members; ``SetDescription.window`` gives the members as a frozenset.
Ideal membership is decided three-valued (In / NotIn / Unknown) from the
certificate alone, so every In/NotIn answer names the rule that justifies
it and Unknown is the honest fallback when the window cannot decide.

Membership is defined on the set itself; the window is only a finite
witness of it.  So the window is lazy: a set may be given a zero-argument
builder of its mask, which runs the first time the mask is read, and the
set operations and ``block_union`` pass builders.  A run whose report
reads no window builds none, and its cost does not grow with N.  A tail
certificate's kind is decided at once, since every verdict reads it, but
its block list may likewise be given as a builder, run the first time the
list is read: membership reads only the kind, so a verdict builds no list.

The dyadic block partition Delta_j = {2^(j-1) (2s - 1) : s >= 1} drives the
counterexample ideal: sets that meet only finitely many blocks.

Certificate semantics (all "up to a finite symmetric difference"):

* ``FINITE``     -- the set equals its window part; nothing beyond N.
* ``COFINITE``   -- the complement is finite.
* ``BLOCK_BOUNDED(J)``   -- the set equals the union of the blocks in J.
* ``BLOCK_COBOUNDED(J)`` -- the set equals the union of the blocks *not* in J
  (the complement of a block-bounded set).
* ``UNKNOWN``    -- no tail information.

The four structured kinds are closed under complement and union, so set
operations on them stay exact: union is one rule per pair of kinds, and
intersection is the complement of the union of the complements.

The block list J of ``BLOCK_BOUNDED(J)`` and ``BLOCK_COBOUNDED(J)`` is a
``BlockSet``: sorted runs of consecutive blocks, so J = blocks 1..4/eps of
the pair form costs one run however fine eps is, and every set operation on
it is linear in the number of runs.  Its JSON is the list of inclusive
[start, end] runs, as for windows.
"""

from __future__ import annotations

import enum
import math
import operator
from bisect import bisect_right
from collections.abc import Set
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DomainError


# ---------------------------------------------------------------------------
# Dyadic block partition


def block_index(n):
    """The unique j with n in Delta_j: trailing binary zeros of n, plus 1.

    Takes an int, or an int64 array elementwise."""
    if isinstance(n, np.ndarray):
        if np.any(n < 1):
            raise DomainError("block_index requires n >= 1")
        # n & -n is 2^(j-1); frexp writes it as 0.5 * 2^j, exactly.
        return np.frexp(n & -n)[1].astype(np.int64)
    if n < 1:
        raise DomainError("block_index requires n >= 1")
    return (n & -n).bit_length()


def block_members(j: int, n_max: int) -> list[int]:
    """Elements of Delta_j = {2^(j-1)(2s-1)} inside [1..n_max]."""
    if j < 1 or n_max < 1:
        raise DomainError("block_members requires j >= 1 and n_max >= 1")
    start = 1 << (j - 1)
    step = 1 << j
    return list(range(start, n_max + 1, step))


def max_block_index(n_max: int) -> int:
    """Largest j whose block meets [1..n_max]."""
    return int(n_max).bit_length()


def block_mask(js, n_max: int) -> np.ndarray:
    """Bool mask over [1..n_max] of the union of the blocks Delta_j, j in js.

    The mask starts filled with block 1's membership, and only the blocks
    j >= 2 that meet the window and differ from block 1 are written over.
    Block 1 is every odd n, half the window, so it is never written
    stride by stride; the cost is linear in n_max whatever the number of
    blocks in ``js``."""
    first = 1 in js
    mask = np.full(max(n_max, 0), first)
    for j in range(2, max_block_index(n_max) + 1):
        if (j in js) != first:
            mask[(1 << (j - 1)) - 1::1 << j] = not first
    return frozen_mask(mask)


def frozen_mask(mask: np.ndarray) -> np.ndarray:
    """Mark a freshly built bool array read-only and return it, so that
    SetDescription shares it instead of copying it."""
    mask.setflags(write=False)
    return mask


# ---------------------------------------------------------------------------
# Tail certificates and set descriptions


class BlockSet(Set):
    """An immutable set of block indices, held as sorted runs.

    The read-only ``edges`` lists each run's first block and one past its
    last, run after run.  It increases strictly, so the runs are disjoint
    and never adjacent, and equal sets have equal edges.  ``len`` counts
    blocks.  Whatever the number of blocks, membership costs O(log runs),
    and union, intersection and difference with another block set cost
    O(runs).  Iteration is ascending.  A block set equals any set with the
    same members, but it hashes by its runs, so only equal block sets are
    sure to hash alike.
    """

    __slots__ = ("_edges",)

    def __new__(cls, blocks: Iterable[int] = ()):
        # Exact type tests: a failed isinstance test against an ABC such
        # as this class costs several times more, and certificates are
        # built thousands of times per audit.
        if type(blocks) is BlockSet:
            return blocks
        if type(blocks) is range and blocks.step == 1:
            return cls._of((blocks.start, blocks.stop) if blocks else ())
        edges = []
        for j in sorted(set(map(int, blocks))):
            if edges and edges[-1] == j:
                edges[-1] = j + 1
            else:
                edges += (j, j + 1)
        return cls._of(tuple(edges))

    @classmethod
    def _of(cls, edges: tuple) -> "BlockSet":
        self = object.__new__(cls)
        self._edges = edges
        return self

    @staticmethod
    def from_mask(mask: np.ndarray) -> "BlockSet":
        """The blocks j with ``mask[j - 1]``."""
        (edges,) = _mask_edges(mask)
        return BlockSet._of(tuple((edges + 1).tolist()))

    @staticmethod
    def rows(masks: np.ndarray) -> list:
        """``from_mask`` of each row of a bool matrix, from one difference
        over the whole matrix."""
        return BlockSet.joined_rows((masks,))

    @staticmethod
    def joined_rows(chunks: Iterable[np.ndarray], start: int = 0) -> list:
        """``rows`` of the bool matrix whose columns are ``start`` unset
        columns, then the ``chunks``' columns, left to right, each chunk
        read once.  A run that crosses into the next chunk ends at the very
        edge where its rest starts; both copies of that edge are dropped,
        so the runs join."""
        rows, edges, width = [], [], start
        for masks in chunks:
            row, col = _mask_edges(masks)
            rows.append(row)
            edges.append(col + (width + 1))
            width += masks.shape[-1]
        row, edge = rows[0], edges[0]
        if len(rows) > 1:
            row, edge = np.concatenate(rows), np.concatenate(edges)
            order = np.argsort(row, kind="stable")
            row, edge = row[order], edge[order]
            touch = (row[1:] == row[:-1]) & (edge[1:] == edge[:-1])
            keep = np.ones(len(row), dtype=bool)
            keep[1:] &= ~touch
            keep[:-1] &= ~touch
            row, edge = row[keep], edge[keep]
        edge = edge.tolist()
        cuts = np.searchsorted(row, np.arange(len(masks) + 1)).tolist()
        return [BlockSet._of(tuple(edge[a:b]))
                for a, b in zip(cuts, cuts[1:])]

    @property
    def edges(self) -> tuple:
        return self._edges

    @property
    def runs(self) -> list[list[int]]:
        """The members as inclusive [start, end] runs."""
        e = self._edges
        return [[a, b - 1] for a, b in zip(e[0::2], e[1::2])]

    def __contains__(self, j) -> bool:
        return bisect_right(self._edges, j) % 2 == 1

    def __iter__(self):
        e = self._edges
        for a, b in zip(e[0::2], e[1::2]):
            yield from range(a, b)

    def __len__(self) -> int:
        return sum(self._edges[1::2]) - sum(self._edges[0::2])

    def __bool__(self) -> bool:
        return bool(self._edges)

    def __eq__(self, other):
        if isinstance(other, BlockSet):
            return self._edges == other._edges
        return Set.__eq__(self, other)

    def __hash__(self):
        return hash(self._edges)

    def __repr__(self):
        return f"BlockSet(runs={self.runs})"

    def __or__(self, other):
        return self._merge(other, operator.or_)

    def __and__(self, other):
        return self._merge(other, operator.and_)

    def __sub__(self, other):
        return self._merge(other, lambda x, y: x and not y)

    def _merge(self, other, keep) -> "BlockSet":
        """The blocks j with ``keep(j in self, j in other)``, in one sweep
        over both edge lists: past an edge, an odd count of edges passed in
        a list means the sweep is inside one of its runs."""
        a, b = self._edges, BlockSet(other)._edges
        i = k = 0
        out = []
        inside = False
        while i < len(a) or k < len(b):
            x = min(a[i] if i < len(a) else math.inf,
                    b[k] if k < len(b) else math.inf)
            i += i < len(a) and a[i] == x
            k += k < len(b) and b[k] == x
            if keep(i % 2 == 1, k % 2 == 1) != inside:
                out.append(x)
                inside = not inside
        return BlockSet._of(tuple(out))


class TailKind(enum.Enum):
    FINITE = "finite"
    COFINITE = "cofinite"
    BLOCK_BOUNDED = "block_bounded"
    BLOCK_COBOUNDED = "block_cobounded"
    UNKNOWN = "unknown"


class TailCertificate:
    """What a set is beyond its window: a ``kind`` and, for the two block
    kinds, the block list J of ``BLOCK_BOUNDED(J)`` or ``BLOCK_COBOUNDED(J)``
    (empty for the other kinds).

    ``blocks`` is a ``BlockSet``, any iterable of block indices, or a
    zero-argument builder that returns one.  The kind is decided at
    construction, since every membership rule reads it; a builder runs the
    first time ``blocks`` is read, at most once, and its block set
    replaces it.  Every reader of the list (``blocks``, ``==``, ``hash``,
    ``repr``, ``to_json``, pickling) goes through ``blocks``.  Only the two
    block kinds take a builder, and it must list at least one block, as
    the factories ``block_bounded`` and ``block_cobounded`` turn an empty
    list into FINITE or COFINITE.  Instances are immutable values: equal
    certificates compare and hash equal.
    """

    __slots__ = ("kind", "_blocks")

    def __init__(self, kind: TailKind, blocks=BlockSet()):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(
            self, "_blocks", blocks if callable(blocks) else BlockSet(blocks))

    def __setattr__(self, name, value):
        raise AttributeError(
            f"TailCertificate is immutable; cannot set {name!r}")

    @property
    def blocks(self) -> BlockSet:
        """The block list, built on first read."""
        blocks = self._blocks
        if type(blocks) is not BlockSet:
            blocks = BlockSet(blocks())
            object.__setattr__(self, "_blocks", blocks)
        return blocks

    def __reduce__(self):
        return TailCertificate, (self.kind, self.blocks)

    def __eq__(self, other):
        if not isinstance(other, TailCertificate):
            return NotImplemented
        return self.kind is other.kind and self.blocks == other.blocks

    def __hash__(self):
        return hash((self.kind, self.blocks))

    def __repr__(self):
        return f"TailCertificate(kind={self.kind!r}, blocks={self.blocks!r})"

    @staticmethod
    def finite() -> "TailCertificate":
        return TailCertificate(TailKind.FINITE)

    @staticmethod
    def cofinite() -> "TailCertificate":
        return TailCertificate(TailKind.COFINITE)

    @staticmethod
    def block_bounded(blocks: Iterable[int]) -> "TailCertificate":
        js = BlockSet(blocks)
        if not js.edges:
            return TailCertificate(TailKind.FINITE)
        return TailCertificate(TailKind.BLOCK_BOUNDED, js)

    @staticmethod
    def block_cobounded(blocks: Iterable[int]) -> "TailCertificate":
        js = BlockSet(blocks)
        if not js.edges:
            return TailCertificate(TailKind.COFINITE)
        return TailCertificate(TailKind.BLOCK_COBOUNDED, js)

    @staticmethod
    def unknown() -> "TailCertificate":
        return TailCertificate(TailKind.UNKNOWN)

    def complement(self) -> "TailCertificate":
        """The certificate of the complement; that of a certificate whose
        list is not built yet lists the same blocks on the first read of
        either."""
        k = self.kind
        if k is TailKind.FINITE:
            return TailCertificate.cofinite()
        if k is TailKind.COFINITE:
            return TailCertificate.finite()
        if type(self._blocks) is not BlockSet:
            swapped = (TailKind.BLOCK_COBOUNDED if k is TailKind.BLOCK_BOUNDED
                       else TailKind.BLOCK_BOUNDED)
            return TailCertificate(swapped, lambda: self.blocks)
        if k is TailKind.BLOCK_BOUNDED:
            return TailCertificate.block_cobounded(self.blocks)
        if k is TailKind.BLOCK_COBOUNDED:
            return TailCertificate.block_bounded(self.blocks)
        return TailCertificate.unknown()

    def to_json(self):
        return {"kind": self.kind.value, "blocks": self.blocks.runs}


class SetDescription:
    """A subset of N: exact window over [1..size] plus a tail certificate.

    ``window`` is an iterable of members, each in [1..size]; a bool mask of
    shape ``(size,)``; or a zero-argument callable that returns such a mask.
    The window is kept as the read-only bool array ``mask``; a writable mask
    is copied, a read-only one is shared.  A callable is a builder: it runs
    the first time ``mask`` is read, at most once, and its checked mask
    replaces it, so a wrong mask raises ``DomainError`` on that first read.
    Every reader of the window (``window``, ``==``, ``hash``, ``repr``,
    ``to_json``, pickling) goes through ``mask``.  The size, the member
    range and the tail are checked at construction.  Instances are immutable
    values: equal sets compare and hash equal.
    """

    __slots__ = ("_mask", "size", "tail")

    def __init__(self, window, size: int, tail: TailCertificate):
        if size < 1:
            raise DomainError("window size must be >= 1")
        if callable(window):
            mask = window
        elif isinstance(window, np.ndarray) and window.dtype == bool:
            mask = _checked_mask(window, size)
        else:
            try:
                members = np.fromiter(window, dtype=np.int64)
            except OverflowError:
                raise DomainError(
                    f"window members outside [1..{size}]"
                ) from None
            bad = members[(members < 1) | (members > size)]
            if bad.size:
                raise DomainError(
                    f"window members outside [1..{size}]: {bad[:5].tolist()}"
                )
            mask = np.zeros(size, dtype=bool)
            mask[members - 1] = True
            frozen_mask(mask)
        object.__setattr__(self, "_mask", mask)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "tail", tail)

    def __setattr__(self, name, value):
        raise AttributeError(f"SetDescription is immutable; cannot set {name!r}")

    @property
    def mask(self) -> np.ndarray:
        """The window as a read-only bool array, built on first read."""
        mask = self._mask
        if callable(mask):
            mask = _checked_mask(mask(), self.size)
            object.__setattr__(self, "_mask", mask)
        return mask

    def __reduce__(self):
        return SetDescription, (self.mask, self.size, self.tail)

    @property
    def window(self) -> frozenset:
        """The window members as a frozenset of ints."""
        return frozenset((np.flatnonzero(self.mask) + 1).tolist())

    def __eq__(self, other):
        if not isinstance(other, SetDescription):
            return NotImplemented
        return (self.size == other.size and self.tail == other.tail
                and np.array_equal(self.mask, other.mask))

    def __hash__(self):
        return hash((self.size, self.tail, self.mask.tobytes()))

    def __repr__(self):
        return (f"SetDescription(window={_mask_runs(self.mask)}, "
                f"size={self.size}, tail={self.tail!r})")

    @staticmethod
    def from_members(members: Iterable[int], size: int,
                     tail: TailCertificate) -> "SetDescription":
        return SetDescription(members, size, tail)

    @staticmethod
    def empty(size: int) -> "SetDescription":
        return SetDescription((), size, TailCertificate.finite())

    @staticmethod
    def full(size: int) -> "SetDescription":
        return SetDescription(
            lambda: frozen_mask(np.ones(size, dtype=bool)), size,
            TailCertificate.cofinite(),
        )

    def complement(self) -> "SetDescription":
        return SetDescription(
            lambda: frozen_mask(~self.mask), self.size,
            self.tail.complement(),
        )

    def union(self, other: "SetDescription") -> "SetDescription":
        if self.size != other.size:
            raise DomainError("window sizes differ")
        return SetDescription(
            lambda: frozen_mask(self.mask | other.mask),
            self.size,
            _union_tail(self.tail, other.tail),
        )

    def intersection(self, other: "SetDescription") -> "SetDescription":
        return self.complement().union(other.complement()).complement()

    def minus(self, other: "SetDescription") -> "SetDescription":
        return self.intersection(other.complement())

    def to_json(self):
        return {
            "window": _mask_runs(self.mask),
            "size": self.size,
            "tail": self.tail.to_json(),
        }


def _checked_mask(mask, size: int) -> np.ndarray:
    """``mask`` as a read-only bool array of shape ``(size,)``: shared when
    it is read-only already, copied when it is writable."""
    if not (isinstance(mask, np.ndarray) and mask.dtype == bool):
        raise DomainError(
            f"window mask is {getattr(mask, 'dtype', type(mask).__name__)}, "
            f"not a bool array"
        )
    if mask.shape != (size,):
        raise DomainError(
            f"window mask has shape {mask.shape}, not ({size},)"
        )
    if mask.flags.writeable:
        mask = frozen_mask(mask.copy())
    return mask


def _mask_edges(masks: np.ndarray) -> tuple:
    """``np.nonzero`` of where each row of a bool array turns on or off:
    its last index array is, alternately, the 0-based position of a run's
    first member and one past its last.  Padding by hand costs less than
    ``np.diff`` with ``prepend`` and ``append``."""
    pad = np.zeros(masks.shape[:-1] + (masks.shape[-1] + 2,), dtype=bool)
    pad[..., 1:-1] = masks
    return np.nonzero(pad[..., 1:] != pad[..., :-1])


def _mask_runs(mask: np.ndarray) -> list[list[int]]:
    """Members of a window mask as inclusive [start, end] intervals."""
    (edges,) = _mask_edges(mask)
    return np.column_stack((edges[0::2] + 1, edges[1::2])).tolist()


def _union_tail(a: TailCertificate, b: TailCertificate) -> TailCertificate:
    ka, kb = a.kind, b.kind
    if TailKind.COFINITE in (ka, kb):
        return TailCertificate.cofinite()
    if ka is TailKind.FINITE:
        return b
    if kb is TailKind.FINITE:
        return a
    if ka is kb is TailKind.BLOCK_BOUNDED:
        return TailCertificate.block_bounded(a.blocks | b.blocks)
    if ka is kb is TailKind.BLOCK_COBOUNDED:
        return TailCertificate.block_cobounded(a.blocks & b.blocks)
    if {ka, kb} == {TailKind.BLOCK_BOUNDED, TailKind.BLOCK_COBOUNDED}:
        bounded, cobounded = (a, b) if ka is TailKind.BLOCK_BOUNDED else (b, a)
        return TailCertificate.block_cobounded(cobounded.blocks - bounded.blocks)
    return TailCertificate.unknown()


def block_elements(j: int, n_max: int) -> SetDescription:
    """Delta_j as a set description with a single-block certificate."""
    return block_union([j], n_max)


def block_union(js: Iterable[int], n_max: int) -> SetDescription:
    tail = TailCertificate.block_bounded(js)
    if tail.blocks and tail.blocks.edges[0] < 1:
        raise DomainError("block indices must be >= 1")
    return SetDescription(lambda: block_mask(tail.blocks, n_max), n_max, tail)


# ---------------------------------------------------------------------------
# Ideals and verdicts


class Decision(enum.Enum):
    IN = "in"
    NOT_IN = "not_in"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Verdict:
    decision: Decision
    certificate: str

    def to_json(self):
        return {"decision": self.decision.value, "certificate": self.certificate}


IN = Decision.IN
NOT_IN = Decision.NOT_IN
UNKNOWN = Decision.UNKNOWN


class IdealKind(enum.Enum):
    FIN = "fin"
    DENSITY_ZERO = "density0"
    BLOCK = "block"


@dataclass(frozen=True)
class IdealDescriptor:
    """One of the built-in admissible, nontrivial ideals on N.

    Fin and DensityZero have property (AP); the block ideal lacks it (the
    counterexample audit demonstrates why).
    """

    kind: IdealKind

    @staticmethod
    def fin() -> "IdealDescriptor":
        return IdealDescriptor(IdealKind.FIN)

    @staticmethod
    def density_zero() -> "IdealDescriptor":
        return IdealDescriptor(IdealKind.DENSITY_ZERO)

    @staticmethod
    def block() -> "IdealDescriptor":
        return IdealDescriptor(IdealKind.BLOCK)

    @property
    def name(self) -> str:
        return self.kind.value

    def has_ap(self) -> bool:
        return self.kind is not IdealKind.BLOCK


# Built-in ideals by configuration name, in listing order.
IDEALS = {
    "fin": IdealDescriptor.fin,
    "density0": IdealDescriptor.density_zero,
    "block": IdealDescriptor.block,
}


def ideal_by_name(name: str) -> IdealDescriptor:
    if name not in IDEALS:
        raise DomainError(f"unknown ideal {name!r}")
    return IDEALS[name]()


_FIN_RULES = {
    TailKind.FINITE: (IN, "fin/finite: finite sets belong to every admissible ideal"),
    TailKind.COFINITE: (NOT_IN, "fin/cofinite: a cofinite member would force N into I"),
    TailKind.BLOCK_BOUNDED: (NOT_IN, "fin/block-bounded: each Delta_j is infinite"),
    TailKind.BLOCK_COBOUNDED: (NOT_IN, "fin/block-cobounded: infinitely many blocks"),
    TailKind.UNKNOWN: (UNKNOWN, "fin/unknown-tail"),
}

_BLOCK_RULES = {
    TailKind.FINITE: (IN, "block/finite: finite sets meet finitely many blocks"),
    TailKind.COFINITE: (NOT_IN, "block/cofinite: meets every block"),
    TailKind.BLOCK_BOUNDED: (IN, "block/block-bounded: finitely many blocks met"),
    TailKind.BLOCK_COBOUNDED: (NOT_IN, "block/block-cobounded: meets all but "
                                       "finitely many blocks"),
    TailKind.UNKNOWN: (UNKNOWN, "block/unknown-tail"),
}

_DENSITY_RULES = {
    TailKind.FINITE: (IN, "density0/finite: finite sets have density zero"),
    TailKind.COFINITE: (NOT_IN, "density0/cofinite: density one"),
    TailKind.BLOCK_BOUNDED: (UNKNOWN, "density0/block-bounded: outside the "
                                      "decidable fragment"),
    TailKind.BLOCK_COBOUNDED: (UNKNOWN, "density0/block-cobounded: outside the "
                                        "decidable fragment"),
    TailKind.UNKNOWN: (UNKNOWN, "density0/unknown-tail"),
}

_RULES = {
    IdealKind.FIN: _FIN_RULES,
    IdealKind.BLOCK: _BLOCK_RULES,
    IdealKind.DENSITY_ZERO: _DENSITY_RULES,
}


def membership(ideal: IdealDescriptor, s: SetDescription) -> Verdict:
    """Does the described set belong to the ideal?  Decided from the tail
    certificate via a fixed, conflict-free rule table."""
    return tail_membership(ideal, s.tail)


def tail_membership(ideal: IdealDescriptor, tail: TailCertificate) -> Verdict:
    """Membership of every set whose tail certificate is ``tail``."""
    decision, rule = _RULES[ideal.kind][tail.kind]
    return Verdict(decision, rule)


def filter_membership(ideal: IdealDescriptor, s: SetDescription) -> Verdict:
    """Membership of ``s`` in the dual filter F(I): s in F(I) iff N \\ s in I,
    read from the complement of its tail certificate alone."""
    v = tail_membership(ideal, s.tail.complement())
    return Verdict(v.decision, "filter via complement: " + v.certificate)
