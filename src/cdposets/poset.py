"""Finite graded bounded posets stored by rank level.

A poset of rank ``r`` here is a sequence of levels 0..r with a unique
bottom at level 0 and a unique top at level r, together with the cover
relations between consecutive levels.  Elements are addressed as
``(rank, index)`` with indices local to each level; the full order is the
reflexive-transitive closure of the covers.  Gradedness means every
element below the top has an up-cover and every element above the bottom
has a down-cover, so all maximal chains run through every level.

Comparability between two levels is computed as 0/1 matrices chained
through the cover relations; this is sound because in a graded poset
every relation x < y lies on a saturated chain.  The exhaustive Eulerian
test checks every interval [x, y] for equal numbers of elements of even
and odd rank.

Both run their matrix products in floating point so that numpy hands them
to BLAS, and both stay exact: every product entry counts elements of one
level inside an interval, and every partial sum of the Eulerian test's
signed accumulation counts elements of that interval, so each is an
integer of absolute value at most ``num_elements``.  Binary floating
point represents every integer up to 2^24 (float32) or 2^53 (float64)
exactly, and sums of such integers that stay in range are computed
without rounding; :func:`exact_float_dtype` picks float32 below 2^24
elements and float64 otherwise.  The bound is checked on the poset
itself, so it also covers posets loaded from files, which no element
budget limits.  Public results are int64 0/1 matrices and exact integers.

Instances are immutable after construction.  Construction itself accepts
structurally broken data so that :meth:`RankedPoset.validate` can report
what is wrong; every other operation requires a valid poset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import BudgetError

DEFAULT_ELEMENT_BUDGET = 10**6

CoverPair = tuple[int, int]


# boolean_sizes forms 2**k only up to this k (8 KB); past it, and past
# the budget, the count is named as a power of two
_HUGE_POWER = 1 << 16

# float32 represents every integer of absolute value up to 2^24 exactly
_FLOAT32_EXACT = 2**24


def exact_float_dtype(num_elements: int) -> type[np.floating]:
    """Float dtype whose matrix products count elements of a poset with
    ``num_elements`` elements exactly: float32 below 2^24, float64 (exact
    up to 2^53) otherwise."""
    return np.float32 if num_elements < _FLOAT32_EXACT else np.float64


def _budget_limit(budget: int | None) -> int:
    return DEFAULT_ELEMENT_BUDGET if budget is None else budget


def _check_budget(total: int, budget: int | None, what: str) -> None:
    limit = _budget_limit(budget)
    if total > limit:
        raise BudgetError(
            f"{what} would have {_count_text(total)} elements, "
            f"budget is {_count_text(limit)}"
        )


def _count_text(count: int) -> str:
    """``str(count)``, or a power of two for a nonnegative count past the
    interpreter's limit on integer-to-string conversion (4300 digits by
    default)."""
    try:
        return str(count)
    except ValueError:
        low = count.bit_length() - 1
        return f"2^{low}" if count == 1 << low else f"more than 2^{low}"


@dataclass(frozen=True)
class IntervalViolation:
    """An interval [x, y] with unbalanced rank parities."""

    rank_low: int
    index_low: int
    rank_high: int
    index_high: int
    even_count: int
    odd_count: int


@dataclass(frozen=True)
class EulerianResult:
    eulerian: bool
    violation: IntervalViolation | None = None

    def __bool__(self) -> bool:
        return self.eulerian


class RankedPoset:
    """A graded bounded poset encoded as level sizes plus cover pairs.

    ``covers[r]`` holds the pairs ``(i, j)`` meaning element ``i`` of level
    ``r`` is covered by element ``j`` of level ``r + 1``.  Indices are
    Python ints, stored as given: :meth:`from_dict`, where outside data
    enters, checks that they are, and the constructions make ints.
    """

    __slots__ = ("rank", "level_sizes", "covers", "_comp", "_diagnostics")

    def __init__(
        self,
        rank: int,
        level_sizes: Sequence[int],
        covers: Sequence[Iterable[CoverPair]],
    ):
        object.__setattr__(self, "rank", int(rank))
        object.__setattr__(self, "level_sizes", tuple(int(s) for s in level_sizes))
        object.__setattr__(
            self, "covers", tuple(frozenset(map(tuple, cs)) for cs in covers)
        )
        object.__setattr__(self, "_comp", {})
        object.__setattr__(self, "_diagnostics", None)

    def __setattr__(self, name, value):
        raise AttributeError("RankedPoset is immutable")

    # number of proper ranks 1..n; flag data is indexed by subsets of these
    @property
    def n(self) -> int:
        return self.rank - 1

    @property
    def num_elements(self) -> int:
        return sum(self.level_sizes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RankedPoset):
            return NotImplemented
        return (
            self.rank == other.rank
            and self.level_sizes == other.level_sizes
            and self.covers == other.covers
        )

    def __hash__(self) -> int:
        return hash((self.rank, self.level_sizes, self.covers))

    def __repr__(self) -> str:
        return f"RankedPoset(rank={self.rank}, level_sizes={list(self.level_sizes)})"

    # -- validation ---------------------------------------------------

    def validate(self) -> list[str]:
        """Return the list of violated structural invariants (empty = valid)."""
        if self._diagnostics is not None:
            return list(self._diagnostics)
        out: list[str] = []
        if self.rank < 1:
            out.append(f"rank must be at least 1, got {self.rank}")
        if len(self.level_sizes) != self.rank + 1:
            out.append(
                f"expected {self.rank + 1} level sizes, got {len(self.level_sizes)}"
            )
        if len(self.covers) != self.rank:
            out.append(f"expected {self.rank} cover levels, got {len(self.covers)}")
        if not out:
            if self.level_sizes[0] != 1:
                out.append(f"level 0 must have exactly one element, got {self.level_sizes[0]}")
            if self.level_sizes[self.rank] != 1:
                out.append(
                    f"level {self.rank} must have exactly one element, "
                    f"got {self.level_sizes[self.rank]}"
                )
            for r, size in enumerate(self.level_sizes):
                if size < 1:
                    out.append(f"level {r} is empty")
            for r, cs in enumerate(self.covers):
                lo, hi = self.level_sizes[r], self.level_sizes[r + 1]
                bad = [(i, j) for i, j in cs if not (0 <= i < lo and 0 <= j < hi)]
                for i, j in sorted(bad):
                    out.append(f"cover ({i}, {j}) at level {r} is out of range")
            if not out:
                for r, cs in enumerate(self.covers):
                    ups = {i for i, _ in cs}
                    downs = {j for _, j in cs}
                    for i in range(self.level_sizes[r]):
                        if i not in ups:
                            out.append(f"element ({r}, {i}) has no up-cover")
                    for j in range(self.level_sizes[r + 1]):
                        if j not in downs:
                            out.append(f"element ({r + 1}, {j}) has no down-cover")
        object.__setattr__(self, "_diagnostics", tuple(out))
        return out

    def _require_valid(self) -> None:
        diags = self.validate()
        if diags:
            raise ValueError("invalid poset: " + "; ".join(diags))

    # -- structure ----------------------------------------------------

    def dual(self) -> "RankedPoset":
        """Order-reversed poset: level r becomes level rank - r, covers transpose."""
        self._require_valid()
        sizes = self.level_sizes[::-1]
        covers = [
            frozenset((j, i) for i, j in self.covers[self.rank - r - 1])
            for r in range(self.rank)
        ]
        return RankedPoset(self.rank, sizes, covers)

    def _cover_matrix(self, r: int) -> np.ndarray:
        m = np.zeros((self.level_sizes[r], self.level_sizes[r + 1]), dtype=np.int64)
        for i, j in self.covers[r]:
            m[i, j] = 1
        return m

    def comparability(self, r1: int, r2: int) -> np.ndarray:
        """0/1 int64 matrix over level r1 x level r2 with 1 where x <= y.

        Satisfies the composition law: comparability(r1, r3) is the boolean
        product of comparability(r1, r2) and comparability(r2, r3).  Each
        level r2 > r1 + 1 is built as the product of comparability(r1, r2 - 1)
        with the cover level, taken in :func:`exact_float_dtype` and
        thresholded at > 0; an entry counts elements of level r2 - 1, so it
        is exact.  The returned array is cached and read-only.
        """
        # the cache is filled only after validation and the poset is immutable
        cached = self._comp.get((r1, r2))
        if cached is not None:
            return cached
        self._require_valid()
        if not 0 <= r1 <= r2 <= self.rank:
            raise ValueError(f"need 0 <= r1 <= r2 <= {self.rank}, got ({r1}, {r2})")
        if r1 == r2:
            m = np.eye(self.level_sizes[r1], dtype=np.int64)
        elif r2 == r1 + 1:
            m = self._cover_matrix(r1)
        else:
            dt = exact_float_dtype(self.num_elements)
            lower = self.comparability(r1, r2 - 1).astype(dt)
            cover = self.comparability(r2 - 1, r2).astype(dt)
            m = (lower @ cover > 0).astype(np.int64)
        m.setflags(write=False)
        # benign race: concurrent readers may recompute, results are identical
        self._comp[(r1, r2)] = m
        return m

    def count_maximal_chains(self) -> int:
        """Number of saturated bottom-to-top chains (exact integer)."""
        self._require_valid()
        vec = [1]
        for r in range(self.rank):
            nxt = [0] * self.level_sizes[r + 1]
            for i, j in self.covers[r]:
                nxt[j] += vec[i]
            vec = nxt
        return vec[0]

    def is_eulerian(self) -> EulerianResult:
        """Exhaustively test that every interval [x, y], x < y, balances
        elements of even and odd rank.  Reports the first violation in
        (rank_low, rank_high, index_low, index_high) order.

        For each pair of ranks r1 < r2 - 1 one signed matrix
        sum over r of (-1)^(r - r1) comparability(r1, r) @ comparability(r, r2)
        is accumulated in :func:`exact_float_dtype`: its (x, y) entry is the
        even minus the odd count of [x, y].  Only inner ranks need products;
        the endpoints add comparability(r1, r2) each with their own sign.
        Every partial sum counts elements of one interval, so it is exact.
        The counts of the reported interval are recomputed in int64.
        """
        self._require_valid()
        dt = exact_float_dtype(self.num_elements)
        for r1 in range(self.rank - 1):
            for r2 in range(r1 + 2, self.rank + 1):
                # x counts with sign +1 and y with (-1)^(r2 - r1): 2 or 0 in all
                diff = self.comparability(r1, r2).astype(dt)
                diff *= 1 + (-1) ** (r2 - r1)
                for r in range(r1 + 1, r2):
                    left = self.comparability(r1, r).astype(dt)
                    prod = left @ self.comparability(r, r2).astype(dt)
                    if (r - r1) % 2:
                        diff -= prod
                    else:
                        diff += prod
                if diff.any():
                    x, y = divmod(int(np.flatnonzero(diff)[0]), diff.shape[1])
                    return EulerianResult(False, self._violation(r1, x, r2, y))
        return EulerianResult(True)

    def _violation(self, r1: int, x: int, r2: int, y: int) -> IntervalViolation:
        """Exact even and odd rank counts of the interval [x, y]."""
        ends = int(self.comparability(r1, r2)[x, y])  # x and y, if x <= y
        counts = [ends, 0]
        counts[(r2 - r1) % 2] += ends
        for r in range(r1 + 1, r2):
            below = self.comparability(r1, r)[x]
            counts[(r - r1) % 2] += int(below @ self.comparability(r, r2)[:, y])
        return IntervalViolation(r1, x, r2, y, counts[0], counts[1])

    # -- serialization ------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "rank": self.rank,
            "level_sizes": list(self.level_sizes),
            "covers": [[list(p) for p in sorted(cs)] for cs in self.covers],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "RankedPoset":
        try:
            rank = data["rank"]
            sizes = data["level_sizes"]
            covers = data["covers"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"poset object needs rank/level_sizes/covers: {exc}") from None
        # type(...) is int: JSON true and false load as bool, an int subclass
        if type(rank) is not int:
            raise ValueError("rank must be an integer")
        if not isinstance(sizes, list) or not all(type(s) is int for s in sizes):
            raise ValueError("level_sizes must be a list of integers")
        if not isinstance(covers, list) or not all(
            isinstance(cs, (list, tuple)) for cs in covers
        ):
            raise ValueError("covers must be a list of lists of pairs")
        parsed = []
        for cs in covers:
            level = []
            for pair in cs:
                if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
                    raise ValueError(f"bad cover pair {pair!r}")
                i, j = pair
                if not (type(i) is int and type(j) is int):
                    raise ValueError(f"bad cover pair {pair!r}")
                level.append((i, j))
            parsed.append(level)
        return cls(rank, sizes, parsed)


def chain_sizes(rank: int, *, budget: int | None = None) -> list[int]:
    """Level sizes of :func:`chain`, after its argument and budget checks."""
    if rank < 1:
        raise ValueError(f"chain rank must be at least 1, got {rank}")
    _check_budget(rank + 1, budget, f"chain({rank})")
    return [1] * (rank + 1)


def chain(rank: int, *, budget: int | None = None) -> RankedPoset:
    """The chain with ``rank + 1`` elements, one per level."""
    sizes = chain_sizes(rank, budget=budget)
    return RankedPoset(rank, sizes, [{(0, 0)} for _ in range(rank)])


def boolean_sizes(k: int, *, budget: int | None = None) -> list[int]:
    """Level sizes of :func:`boolean`, after its argument and budget checks."""
    if k < 1:
        raise ValueError(f"boolean rank must be at least 1, got {k}")
    # from the budget's bit length on, 2**k is over budget; a huge k is
    # refused on that alone, since forming 2**k could exhaust memory
    limit = _budget_limit(budget)
    if k > _HUGE_POWER and k >= max(limit, 0).bit_length():
        raise BudgetError(
            f"boolean({k}) would have 2^{k} elements, budget is {_count_text(limit)}"
        )
    _check_budget(2**k, budget, f"boolean({k})")
    return [math.comb(k, r) for r in range(k + 1)]


def boolean(k: int, *, budget: int | None = None) -> RankedPoset:
    """The boolean lattice of subsets of a k-element set, ordered by inclusion."""
    sizes = boolean_sizes(k, budget=budget)
    from itertools import combinations

    levels = [list(combinations(range(k), r)) for r in range(k + 1)]
    covers = []
    for r in range(k):
        index_above = {sub: j for j, sub in enumerate(levels[r + 1])}
        cs = set()
        for i, sub in enumerate(levels[r]):
            members = set(sub)
            for extra in range(k):
                if extra not in members:
                    bigger = tuple(sorted(members | {extra}))
                    cs.add((i, index_above[bigger]))
        covers.append(cs)
    return RankedPoset(k, sizes, covers)
