"""Finite graded bounded posets stored by rank level.

A poset of rank ``r`` here is a sequence of levels 0..r with a unique
bottom at level 0 and a unique top at level r, together with the cover
relations between consecutive levels.  Elements are addressed as
``(rank, index)`` with indices local to each level; the full order is the
reflexive-transitive closure of the covers.  Gradedness means every
element below the top has an up-cover and every element above the bottom
has a down-cover, so all maximal chains run through every level.

Each cover level is stored as one read-only integer array of shape
(k, 2), one row ``(i, j)`` per cover, the rows distinct and in
lexicographic order.  That order is canonical, so equality compares
arrays, and validation, duality, cover matrices and chain counts all run
as numpy operations on them.  The arrays are int64; an index that does
not fit in int64 (only possible in broken input, which validation then
reports) keeps the level as an array of Python ints.  The tuple of
frozensets of pairs in :attr:`RankedPoset.covers` is built from the
arrays on first read.

Comparability between two levels is computed as 0/1 matrices chained
through the cover relations; this is sound because in a graded poset
every relation x < y lies on a saturated chain.  The exhaustive Eulerian
test checks every interval [x, y] for equal numbers of elements of even
and odd rank, from sums of signed weights over the closed intervals
between two levels (:meth:`RankedPoset._interval_sums`).  One loop,
:func:`_eulerian_test`, runs it over those sums, and over the sums that
:func:`~cdposets.exprs.eulerian_of` takes from an expression's tree.

Both run their matrix products in floating point so that numpy hands them
to BLAS, and both stay exact: every product entry counts elements of one
level inside an interval, so it is an integer of absolute value at most
``num_elements``.  Binary floating point represents every integer up to
2^24 (float32) or 2^53 (float64) exactly, and sums of such integers that
stay in range are computed without rounding; :func:`exact_float_dtype`
picks float32 below 2^24 elements and float64 otherwise.  The bound is
checked on the poset itself, so it also covers posets loaded from files,
which no element budget limits.  The 0/1 matrices are cached once, in
that dtype, as the operands of every product, the flag vector's
included; :meth:`RankedPoset.comparability` returns an int64 copy made
on each call, and public results are exact integers.  The Eulerian
test's weighted sums run in the :func:`exact_float_dtype` of the
tested poset's number of elements below 2^53 and in Python ints from
2^53 on: each partial sum is at most the size of one interval.  Each
product is put in that dtype, into Python ints by way of int64, before
its weight multiplies it.

Each poset also caches its flag table once :func:`~cdposets.flags.flag_vector`
has computed it: one :class:`~cdposets.flags.FlagVector`, whose 2^n
entries, n = rank - 1, are one read-only int64 array (Python ints from
2^63 on), held for as long as the poset lives.
:meth:`RankedPoset.dual` hands the dual the bit reversal of a held table,
since f_S(P*) = f_(n+1-S)(P), so the dual's table takes no matrix
products.  Equality and hashing do not read the cache.

Instances are immutable after construction.  Construction itself accepts
structurally broken data so that :meth:`RankedPoset.validate` can report
what is wrong; every other operation requires a valid poset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import BudgetError

DEFAULT_ELEMENT_BUDGET = 10**6

CoverPair = tuple[int, int]


# boolean_sizes forms 2**k only up to this k (8 KB); past it, and past
# the budget, the count is named as a power of two
_HUGE_POWER = 1 << 16

# float32 represents every integer of absolute value up to 2^24 exactly
_FLOAT32_EXACT = 2**24

# float64 represents every integer up to 2^53 exactly
_FLOAT64_EXACT = 2**53


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


def _in_dtype(counts: np.ndarray, dtype) -> np.ndarray:
    """Exact float counts in ``dtype``: a float dtype, or Python ints
    (object) by way of int64."""
    if dtype is object:
        return counts.astype(np.int64).astype(object)
    return counts.astype(dtype)


def _eulerian_test(sizes: Sequence[int], sums: Callable) -> EulerianResult:
    """The Eulerian test of a poset with level sizes ``sizes``, from its
    closed interval sums: ``sums(r1, r2, c, dtype)`` gives, for each x of
    level r1 and y of level r2, the sum of the weights c(rank z) over z in
    [x, y], 0 where x and y do not compare.  It is a matrix in ``dtype``,
    or one int, the sum of every comparable pair, (0, 0) among them.  A
    matrix may have one row (or column) where all rows (or columns) are
    equal.

    With c(r) = (-1)^(r - r1) the sum is the even minus the odd count of
    [x, y], so for each pair of ranks r1 < r2 - 1 in order the first
    nonzero entry is the first violation; the sums with weights 1 give its
    size.  Every partial sum is at most the size of one interval in
    absolute value, so the sums are exact in :func:`exact_float_dtype`
    below 2^53 elements, and in Python ints from there on."""
    rank = len(sizes) - 1
    elements = sum(sizes)
    dtype = exact_float_dtype(elements) if elements < _FLOAT64_EXACT else object
    ones = [1] * (rank + 1)
    for r1 in range(rank - 1):
        signs = [1 - 2 * ((r - r1) % 2) for r in range(rank + 1)]
        for r2 in range(r1 + 2, rank + 1):
            signed = sums(r1, r2, signs, dtype)
            if not isinstance(signed, np.ndarray):
                signed = np.atleast_2d(signed)  # the pair (0, 0)'s entry
            if signed.any():
                x, y = divmod(int(np.flatnonzero(signed)[0]), signed.shape[1])
                even_odd = int(signed[x, y])
                size = int(np.atleast_2d(sums(r1, r2, ones, dtype))[x, y])
                violation = IntervalViolation(
                    r1, x, r2, y, (size + even_odd) // 2, (size - even_odd) // 2
                )
                return EulerianResult(False, violation)
    return EulerianResult(True)


def _level_array(pairs: Iterable[CoverPair] | np.ndarray) -> np.ndarray:
    """One cover level as a (k, 2) array: int64, or Python ints when an
    index does not fit in int64."""
    if isinstance(pairs, np.ndarray):
        return pairs
    pairs = list(pairs)
    try:
        return np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    except OverflowError:
        return np.asarray(pairs, dtype=object).reshape(-1, 2)


def _sorted_rows(levels: Sequence[np.ndarray]) -> tuple[np.ndarray, list[int]]:
    """The levels' rows in one array, each level's rows distinct and in
    lexicographic order, and the number of rows of each level.  Rows
    already in that order are not sorted again."""
    counts = [len(cs) for cs in levels]
    rows = np.concatenate(levels) if levels else np.empty((0, 2), dtype=np.int64)
    level = np.arange(len(levels)).repeat(counts)
    i, j = rows[:, 0], rows[:, 1]
    later = (level[1:] != level[:-1]) | (i[1:] > i[:-1]) | ((i[1:] == i[:-1]) & (j[1:] > j[:-1]))
    if np.count_nonzero(later) < len(later):
        order = np.lexsort((j, i, level))
        rows, level = rows[order], level[order]
        i, j = rows[:, 0], rows[:, 1]
        keep = np.ones(len(rows), dtype=bool)
        keep[1:] = (level[1:] != level[:-1]) | (i[1:] != i[:-1]) | (j[1:] != j[:-1])
        rows, level = rows[keep], level[keep]
        counts = np.bincount(level, minlength=len(levels)).tolist()
    return rows, counts


class RankedPoset:
    """A graded bounded poset encoded as level sizes plus cover pairs.

    ``cover_arrays[r]`` is the (k, 2) array of pairs ``(i, j)`` meaning
    element ``i`` of level ``r`` is covered by element ``j`` of level
    ``r + 1``, rows distinct and sorted (see the module docstring).  The
    levels are consecutive views of one array of all cover rows, so that
    whole-poset operations run once and not once per level.  The
    constructor takes each level as a (k, 2) integer array or as any
    iterable of integer pairs, in any order and with repeats.
    :attr:`covers` gives the same pairs as frozensets of Python int pairs.
    """

    __slots__ = (
        "rank",
        "level_sizes",
        "cover_arrays",
        "_rows",
        "_row_level",
        "_covers",
        "_float_comp",
        "_diagnostics",
        "_flags",
    )

    def __init__(
        self,
        rank: int,
        level_sizes: Sequence[int],
        covers: Sequence[Iterable[CoverPair] | np.ndarray],
    ):
        self._fill(rank, level_sizes, *_sorted_rows([_level_array(cs) for cs in covers]))

    @classmethod
    def _from_rows(
        cls, rank: int, level_sizes: Sequence[int], rows: np.ndarray, counts: Sequence[int]
    ) -> "RankedPoset":
        """The poset whose cover rows, ``counts[r]`` of them for level r,
        are ``rows`` and already in the constructor's order; the
        constructions, which lay their rows out in that order, build
        through this without sorting them again."""
        poset = cls.__new__(cls)
        poset._fill(rank, level_sizes, rows, counts)
        return poset

    def _fill(
        self, rank: int, level_sizes: Sequence[int], rows: np.ndarray, counts: Sequence[int]
    ) -> None:
        level = np.arange(len(counts)).repeat(counts)
        rows.setflags(write=False)
        level.setflags(write=False)
        views, end = [], 0
        for k in counts:
            views.append(rows[end : end + k])
            end += k
        object.__setattr__(self, "rank", int(rank))
        object.__setattr__(self, "level_sizes", tuple(map(int, level_sizes)))
        object.__setattr__(self, "cover_arrays", tuple(views))
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_row_level", level)
        object.__setattr__(self, "_covers", None)
        object.__setattr__(self, "_float_comp", {})
        object.__setattr__(self, "_diagnostics", None)
        object.__setattr__(self, "_flags", None)

    def __setattr__(self, name, value):
        raise AttributeError("RankedPoset is immutable")

    # number of proper ranks 1..n; flag data is indexed by subsets of these
    @property
    def n(self) -> int:
        return self.rank - 1

    @property
    def num_elements(self) -> int:
        return sum(self.level_sizes)

    @property
    def covers(self) -> tuple[frozenset[CoverPair], ...]:
        """``covers[r]``: the cover pairs of level r as a frozenset of
        Python int pairs, built from :attr:`cover_arrays` on first read."""
        if self._covers is None:
            view = tuple(frozenset(map(tuple, cs.tolist())) for cs in self.cover_arrays)
            object.__setattr__(self, "_covers", view)
        return self._covers

    def __eq__(self, other) -> bool:
        if not isinstance(other, RankedPoset):
            return NotImplemented
        return (
            self.rank == other.rank
            and self.level_sizes == other.level_sizes
            and np.array_equal(self._row_level, other._row_level)
            and np.array_equal(self._rows, other._rows)
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
        if len(self.cover_arrays) != self.rank:
            out.append(f"expected {self.rank} cover levels, got {len(self.cover_arrays)}")
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
            out.extend(self._cover_diagnostics(out))
        object.__setattr__(self, "_diagnostics", tuple(out))
        return out

    def _cover_diagnostics(self, found: list[str]) -> list[str]:
        """Covers out of range, level by level in sorted order; then, when
        nothing else is wrong, elements without an up- or down-cover.  All
        levels are checked at once on their concatenated rows."""
        rows, level = self._rows, self._row_level
        i, j = rows[:, 0], rows[:, 1]
        # object dtype when a (broken) size does not fit in int64
        sizes = np.array(self.level_sizes)
        bad = (i >= sizes[level]) | (j >= sizes[level + 1]) | (i < 0) | (j < 0)
        if np.count_nonzero(bad):
            return [
                f"cover ({x}, {y}) at level {r} is out of range"
                for r, (x, y) in zip(level[bad].tolist(), rows[bad].tolist())
            ]
        if found:
            return []
        # elements numbered level after level; an element lacking an up-
        # or a down-cover leaves its count at zero
        starts = np.array([0, *accumulate(self.level_sizes)])
        up = np.bincount(starts[level] + i, minlength=starts[-1])
        down = np.bincount(starts[level + 1] + j, minlength=starts[-1])
        # every element below the top level needs an up-cover, every
        # element above the bottom level a down-cover
        below, above = up[: starts[-2]], down[starts[1] :]
        if np.count_nonzero(below) + np.count_nonzero(above) == len(below) + len(above):
            return []
        out = []
        for r in range(self.rank):
            for level, what, has in ((r, "up", up), (r + 1, "down", down)):
                span = has[starts[level] : starts[level + 1]]
                for x in (span == 0).nonzero()[0].tolist():
                    out.append(f"element ({level}, {x}) has no {what}-cover")
        return out

    def _require_valid(self) -> None:
        diags = self.validate()
        if diags:
            raise ValueError("invalid poset: " + "; ".join(diags))

    # -- structure ----------------------------------------------------

    def dual(self) -> "RankedPoset":
        """Order-reversed poset: level r becomes level rank - r, covers
        transpose.  When this poset holds its flag table, the dual gets its
        bit reversal, f_S(P*) = f_(n+1-S)(P), instead of computing its own."""
        self._require_valid()
        # rows sorted by (level, i, j), stably sorted by (new level, j):
        # each new level's rows (j, i) in order
        key = (self.rank - 1 - self._row_level) * max(self.level_sizes) + self._rows[:, 1]
        rows = self._rows[key.argsort(kind="stable"), ::-1]
        counts = [len(cs) for cs in reversed(self.cover_arrays)]
        dual = RankedPoset._from_rows(self.rank, self.level_sizes[::-1], rows, counts)
        if self._flags is not None:
            from .flags import FlagVector, reversed_table  # flags imports this module

            table = reversed_table(self._flags.array)
            object.__setattr__(dual, "_flags", FlagVector._from_array(self.n, table))
        return dual

    def comparability(self, r1: int, r2: int) -> np.ndarray:
        """0/1 int64 matrix over level r1 x level r2 with 1 where x <= y.

        Satisfies the composition law: comparability(r1, r3) is the boolean
        product of comparability(r1, r2) and comparability(r2, r3).  It is
        a read-only int64 copy of :meth:`_float_comparability`, made on
        each call.
        """
        m = self._float_comparability(r1, r2).astype(np.int64)
        m.setflags(write=False)
        return m

    def _float_comparability(self, r1: int, r2: int) -> np.ndarray:
        """``comparability(r1, r2)`` in :func:`exact_float_dtype`, cached and
        read-only: the operand of every matrix product.  A cover level is
        set from its cover array; each level r2 > r1 + 1 is the product of
        the matrices of (r1, r2 - 1) and (r2 - 1, r2) thresholded at > 0,
        whose entries count elements of level r2 - 1, so it is exact."""
        cached = self._float_comp.get((r1, r2))
        if cached is not None:
            return cached
        self._require_valid()
        if not 0 <= r1 <= r2 <= self.rank:
            raise ValueError(f"need 0 <= r1 <= r2 <= {self.rank}, got ({r1}, {r2})")
        dt = exact_float_dtype(self.num_elements)
        if r1 == r2:
            m = np.eye(self.level_sizes[r1], dtype=dt)
        elif r2 == r1 + 1:
            m = np.zeros((self.level_sizes[r1], self.level_sizes[r2]), dtype=dt)
            cs = self.cover_arrays[r1]
            m[cs[:, 0], cs[:, 1]] = 1
        else:
            lower = self._float_comparability(r1, r2 - 1)
            m = (lower @ self._float_comparability(r2 - 1, r2) > 0).astype(dt)
        m.setflags(write=False)
        self._float_comp[(r1, r2)] = m
        return m

    def count_maximal_chains(self) -> int:
        """Number of saturated bottom-to-top chains (exact integer).

        The counts of chains from the bottom to each element are summed
        level by level in float64.  Each chain to an element extends to a
        maximal chain, so every partial sum is at most the result.  Sums
        below 2^53 are exact, and rounding never carries a sum from 2^53 or
        more back below it, so a float result below 2^53 is exact; from
        2^53 on the sums are redone in Python ints."""
        self._require_valid()
        vec = np.ones(1)
        for cs, size in zip(self.cover_arrays, self.level_sizes[1:]):
            vec = np.bincount(cs[:, 1], weights=vec[cs[:, 0]], minlength=size)
        if vec[0] < _FLOAT64_EXACT:
            return int(vec[0])
        vec = np.ones(1, dtype=object)
        for cs, size in zip(self.cover_arrays, self.level_sizes[1:]):
            nxt = np.zeros(size, dtype=object)
            np.add.at(nxt, cs[:, 1], vec[cs[:, 0]])
            vec = nxt
        return int(vec[0])

    def is_eulerian(self) -> EulerianResult:
        """Exhaustively test that every interval [x, y], x < y, balances
        elements of even and odd rank.  Reports the first violation in
        (rank_low, rank_high, index_low, index_high) order, by
        :func:`_eulerian_test` over :meth:`_interval_sums`."""
        self._require_valid()
        return _eulerian_test(self.level_sizes, self._interval_sums)

    def _interval_sums(self, r1: int, r2: int, c: Sequence[int], dtype) -> np.ndarray:
        """For each x of level r1 and y of level r2, the sum of c(rank z)
        over z in [x, y], 0 where x and y do not compare, in ``dtype``.

        Entry (x, y) of the product of the 0/1 matrices of (r1, r) and
        (r, r2) of :meth:`_float_comparability` counts the elements of
        level r in [x, y], exactly in their float dtype; comparability(r1,
        r2) counts the ends.  Each count is put in ``dtype`` before its
        weight multiplies it, since the weight need not be exact in the
        poset's own dtype."""
        comp = self._float_comparability
        ends = comp(r1, r2)
        convert = ends.dtype.type is not dtype
        out = (_in_dtype(ends, dtype) if convert else ends) * (c[r1] + c[r2])
        for r in range(r1 + 1, r2):
            prod = comp(r1, r) @ comp(r, r2)
            if convert:
                prod = _in_dtype(prod, dtype)
            if c[r] == 1:
                out += prod
            elif c[r] == -1:
                out -= prod
            else:
                out += prod * c[r]
        return out

    # -- serialization ------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "rank": self.rank,
            "level_sizes": list(self.level_sizes),
            "covers": [cs.tolist() for cs in self.cover_arrays],
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
        for cs in covers:
            for pair in cs:
                if not (
                    isinstance(pair, (list, tuple))
                    and len(pair) == 2
                    and type(pair[0]) is int
                    and type(pair[1]) is int
                ):
                    raise ValueError(f"bad cover pair {pair!r}")
        return cls(rank, sizes, covers)


def chain_sizes(rank: int, *, budget: int | None = None) -> list[int]:
    """Level sizes of :func:`chain`, after its argument and budget checks."""
    if rank < 1:
        raise ValueError(f"chain rank must be at least 1, got {rank}")
    _check_budget(rank + 1, budget, f"chain({rank})")
    return [1] * (rank + 1)


def chain(rank: int, *, budget: int | None = None) -> RankedPoset:
    """The chain with ``rank + 1`` elements, one per level."""
    sizes = chain_sizes(rank, budget=budget)
    return RankedPoset._from_rows(rank, sizes, np.zeros((rank, 2), dtype=np.int64), [1] * rank)


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
    """The boolean lattice of subsets of a k-element set, ordered by inclusion.

    Level r lists the r-subsets of {0, ..., k-1} in the order of
    ``itertools.combinations``.  Reading bit e of a subset's bitmask as
    2^(k-1-e), that order is decreasing value: at the first element where
    two sorted subsets differ, the smaller element outweighs every later
    bit.  Adding a smaller element to a subset gives an earlier superset
    for the same reason, so covers listed by subset and then by added
    element come out sorted.
    """
    sizes = boolean_sizes(k, budget=budget)
    single = 1 << np.arange(k)
    bits = (np.arange(1 << k)[:, None] & single) != 0
    # masks by level, then in level order
    order = np.lexsort((-(bits @ single[::-1]), bits.sum(axis=1)))
    starts = np.cumsum([0, *sizes])
    index = np.empty(1 << k, dtype=np.int64)  # position of each mask in its level
    index[order] = np.arange(1 << k) - starts[:-1].repeat(sizes)
    below, added = (~bits[order[: starts[k]]]).nonzero()
    rows = np.empty((len(below), 2), dtype=np.int64)
    rows[:, 0] = index[order[below]]
    rows[:, 1] = index[order[below] | single[added]]
    return RankedPoset._from_rows(k, sizes, rows, [(k - r) * sizes[r] for r in range(k)])
