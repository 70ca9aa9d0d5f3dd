"""Constructions that build new ranked posets from old ones.

Every construction works on the cover arrays of
:class:`~cdposets.poset.RankedPoset`, one sorted (k, 2) integer array per
level, with numpy index arithmetic and no Python object per cover.  Each
lays its rows out in sorted order, except :func:`glue`, whose parts
overlap and which leaves sorting and dropping repeats to the
``RankedPoset`` constructor.

Two constructions copy levels in place, and both are one map over the
covers.  The copies of a level are laid out one after another: copy a of
element i at proper level r, of old size L_r, gets index a * L_r + i, so
copy 0 keeps the old indices.

* :func:`replicate_interval` replaces the subposet spanned by a contiguous
  range of proper ranks with N parallel copies of itself, keeping covers
  inside the range within each copy and duplicating the boundary covers to
  every copy.
* :func:`horizontal_double` doubles every proper level, turning each cover
  into a complete bipartite bowtie; the double of any bounded graded poset
  of rank r has cd-index c^(r-1) contributions behaving like a chain.  It
  equals replicating each proper level into two copies in turn, but builds
  the result directly, as one poset.

:func:`join` stacks one bounded poset on another (top of the first and
bottom of the second removed, complete bipartite covers in between); the
cd-index is multiplicative across it.  :func:`glue` identifies several
posets of equal rank along chosen levels, index by index.

The paper's families (``dp``, ``lemma2``, ``lemma3``) are expression
trees over these constructions, defined in :mod:`cdposets.exprs`.  When
flag vectors or the Eulerian test are computed from such a tree, nothing
is built but a glue whose chains can cross parts, with its parts; the
other nodes have identities there.  The walk runs a glue's checks
through the same helper as :func:`glue`, :func:`_glue_layout`, once per
glue.  The helper takes each part's level sizes and comparabilities
between two levels, and nothing else: the walk gives them from its
parts' plans, by closed forms, and :func:`glue` from its posets' cover
arrays (:func:`_comparability_rows`), with no matrix product.  So this
module imports nothing from :mod:`cdposets.exprs`.
"""

from __future__ import annotations

import functools
from itertools import combinations
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import GlueInconsistentError, GlueMismatchError
from .poset import RankedPoset, _check_budget

Interval = tuple[int, int]


def replicate_interval(
    poset: RankedPoset, low: int, high: int, copies: int, *, budget: int | None = None
) -> RankedPoset:
    """Replace the levels low..high by ``copies`` parallel copies.

    Covers internal to the range are kept within each copy; covers crossing
    either boundary are duplicated to every copy.  Copy ``t`` of element
    ``i`` at a replicated level of old size ``L`` gets index ``t * L + i``,
    so ``copies = 1`` returns the poset unchanged.
    """
    poset._require_valid()
    sizes = replicated_sizes(poset.level_sizes, low, high, copies, budget=budget)
    return _copy_levels(poset, sizes, linked=range(low, high + 1))


def replicated_sizes(
    sizes: Sequence[int], low: int, high: int, copies: int, *, budget: int | None = None
) -> list[int]:
    """Level sizes of :func:`replicate_interval`, after its argument and
    budget checks."""
    rank = len(sizes) - 1
    if not 1 <= low <= high <= rank - 1:
        raise ValueError(
            f"interval [{low}, {high}] not within proper ranks [1, {rank - 1}]"
        )
    if copies < 1:
        raise ValueError(f"copies must be at least 1, got {copies}")
    out = [size * copies if low <= r <= high else size for r, size in enumerate(sizes)]
    _check_budget(sum(out), budget, "replicate_interval")
    return out


def doubled_sizes(sizes: Sequence[int], *, budget: int | None = None) -> list[int]:
    """Level sizes of :func:`horizontal_double`, checked level by level as
    if each proper level were replicated in turn."""
    out = list(sizes)
    total = sum(out)
    for r in range(1, len(out) - 1):
        total += out[r]
        out[r] *= 2
        _check_budget(total, budget, "horizontal_double")
    return out


def horizontal_double(poset: RankedPoset, *, budget: int | None = None) -> RankedPoset:
    """Make two copies of every proper level (rank 1 through rank - 1).

    Copy ``a`` of element ``i`` at proper level ``r`` gets index
    ``a * L_r + i``, and every cover goes to all the copy pairs of its two
    levels.  This is the composition of ``replicate_interval(., r, r, 2)``
    over r = 1, ..., rank - 1, built as one map.
    """
    poset._require_valid()
    sizes = doubled_sizes(poset.level_sizes, budget=budget)
    return _copy_levels(poset, sizes, linked=range(0))


def _copy_levels(poset: RankedPoset, sizes: Sequence[int], linked: range) -> RankedPoset:
    """Level r of the result is ``sizes[r] / L_r`` copies of level r of
    ``poset``, copy ``a`` of element ``i`` at ``a * L_r + i``.  A cover
    (i, j) between levels r and r + 1 goes to the copy pairs (a, a) when
    both levels lie in ``linked`` and to every pair (a, b) otherwise.

    All levels are mapped at once.  Within a level the result is ordered
    by a, i, b, j (b = a on linked levels, where a single b is counted),
    so it comes out sorted: copy a of a level of k covers is one block of
    ``B * k`` rows, for B copies b, and within it the ``count`` covers of
    one i, from the level's row ``start`` on, are written b by b.
    """
    old = poset.level_sizes
    params, out_k, rows_before = [], [], 0
    for r, cs in enumerate(poset.cover_arrays):
        same = r in linked and r + 1 in linked
        a_copies = sizes[r] // old[r]
        b_copies = 1 if same else sizes[r + 1] // old[r + 1]
        # where copy a = 0 of the level starts, less B times its first row
        base = sum(out_k) - rows_before * b_copies
        params.append((old[r], old[r + 1], a_copies, b_copies, same, len(cs) * b_copies, base))
        out_k.append(len(cs) * a_copies * b_copies)
        rows_before += len(cs)
    rows, level = poset._rows, poset._row_level
    lo, hi, a_copies, b_copies, same, stride, base = np.array(params)[level].T
    i, j = rows[:, 0], rows[:, 1]
    first = np.empty(len(rows), dtype=bool)
    first[:1] = True
    first[1:] = (level[1:] != level[:-1]) | (i[1:] != i[:-1])
    group = first.cumsum() - 1
    start = first.nonzero()[0][group]
    count = np.bincount(group)[group]
    base += start * (b_copies - 1) + np.arange(len(rows))
    # one image per (row, a, b), numbered t within its row
    images = a_copies * b_copies
    src = np.arange(len(rows)).repeat(images)
    t = np.arange(len(src)) - (images.cumsum() - images).repeat(images)
    a, b = np.divmod(t, b_copies[src])
    at = base[src] + a * stride[src] + b * count[src]
    out = np.empty((len(src), 2), dtype=np.int64)
    out[at, 0] = a * lo[src] + i[src]
    out[at, 1] = (a * same[src] + b) * hi[src] + j[src]
    return RankedPoset._from_rows(poset.rank, sizes, out, out_k)


def join(
    left: RankedPoset, right: RankedPoset, *, budget: int | None = None
) -> RankedPoset:
    """Stack ``right`` on top of ``left``.

    The top of ``left`` and the bottom of ``right`` are removed and every
    remaining element of ``left`` is placed below every remaining element
    of ``right``, i.e. complete bipartite covers between the old coatom
    level of ``left`` and the old atom level of ``right``.  The rank is
    rank(left) + rank(right) - 1, and chain(1) is a two-sided identity.
    """
    left._require_valid()
    right._require_valid()
    rank = left.rank + right.rank - 1
    sizes = joined_sizes(left.level_sizes, right.level_sizes, budget=budget)
    coatoms, atoms = left.level_sizes[left.rank - 1], right.level_sizes[1]
    middle = np.array(np.divmod(np.arange(coatoms * atoms), atoms)).T
    below = [len(cs) for cs in left.cover_arrays[:-1]]
    above = [len(cs) for cs in right.cover_arrays[1:]]
    rows = np.concatenate(
        [left._rows[: sum(below)], middle, right._rows[len(right._rows) - sum(above) :]]
    )
    return RankedPoset._from_rows(rank, sizes, rows, [*below, coatoms * atoms, *above])


def joined_sizes(
    left: Sequence[int], right: Sequence[int], *, budget: int | None = None
) -> list[int]:
    """Level sizes of :func:`join`, after its budget check."""
    sizes = list(left[:-1]) + list(right[1:])
    _check_budget(sum(sizes), budget, "join")
    return sizes


def glue(
    parts: Sequence[tuple[RankedPoset, Iterable[int]]], *, budget: int | None = None
) -> RankedPoset:
    """Identify several posets of equal rank along shared levels.

    Each part comes with the set of ranks at which it is glued; every glue
    set must contain rank 0 and the top rank.  At each glued rank the
    levels of all participating parts are identified index by index (their
    sizes must agree), and the shared block occupies the lowest indices of
    the resulting level.  Parts not gluing at a rank keep disjoint blocks,
    laid out in part order.

    Raises ``ValueError("invalid poset: ...")`` for an invalid part,
    :class:`GlueMismatchError` on level-size disagreement and
    :class:`GlueInconsistentError` when two parts glued at ranks r < r'
    induce different comparabilities between the shared levels.  The
    checks are those of an expression's glue (:func:`_glue_layout`), on
    each part's level sizes and its comparability between two levels,
    which comes from its cover arrays (:func:`_comparability_rows`), the
    rows of the lower level carried up one cover level at a time.  No dense
    comparability matrix of a part's own levels is multiplied, so a part
    with wide unshared levels (``lemma2``'s third part has 4096-element
    levels at N = 8) costs rows, not 4096 x 4096 products.  When several
    pairs of ranks disagree, the first pair (r, r') in lexicographic order
    is reported.
    """
    posets, checked = [], []
    for poset, ranks in parts:
        poset._require_valid()
        posets.append(poset)
        checked.append((poset.level_sizes, functools.partial(_comparability_rows, poset), ranks))
    return _glued(_glue_layout(checked, budget=budget), posets)


class _GlueLayout(NamedTuple):
    """The glue sets of a checked glue, its level sizes, and the blocks of
    each level r as (first index, parts): the shared block of the parts
    that glue at r, when any does, then each other part's own block, in
    part order.  Each part's level r is the block of level r that holds
    it, element i at the block's first index plus i."""

    sets: list[frozenset[int]]
    sizes: list[int]
    blocks: list[list[tuple[int, frozenset[int]]]]


def _glue_layout(parts: Sequence[tuple], *, budget: int | None = None) -> _GlueLayout:
    """Every check of :func:`glue` after its parts' validation, in its
    order: parts, ranks, glue sets, level sizes, comparabilities, budget;
    then the glue's level sizes and the blocks of each level
    (:class:`_GlueLayout`), found with the level sizes.  Each part is
    ``(sizes, compare, ranks)``: its level sizes, ``compare(r1, r2)``,
    its 0/1 comparability between levels r1 < r2, and the ranks it glues
    at.  No part is built: the
    walk of :mod:`cdposets.exprs` gives ``compare`` by closed forms, and
    :func:`glue` from its posets' cover arrays.

    Only the levels that two parts glue at are compared, and two parts
    agree between levels r < r2 exactly when their ``compare(r, r2)`` are
    equal, index by index, since the glue identifies those levels index
    by index."""
    if not parts:
        raise ValueError("glue needs at least one part")
    level_sizes, compares, rank_sets = zip(*parts)
    glue_sets = [frozenset(int(r) for r in ranks) for ranks in rank_sets]
    rank = len(level_sizes[0]) - 1
    for sizes in level_sizes[1:]:
        if len(sizes) - 1 != rank:
            raise ValueError(
                f"all parts must share one rank, got {len(sizes) - 1} and {rank}"
            )
    for k, gs in enumerate(glue_sets):
        if any(r < 0 or r > rank for r in gs):
            raise ValueError(f"part {k} glue ranks {sorted(gs)} outside [0, {rank}]")
        if 0 not in gs or rank not in gs:
            raise ValueError(f"part {k} must glue at ranks 0 and {rank}")

    sizes, blocks = [], []
    for r in range(rank + 1):
        gluing = [k for k, gs in enumerate(glue_sets) if r in gs]
        level, total = [], 0
        if gluing:
            total = level_sizes[gluing[0]][r]
            for k in gluing[1:]:
                if level_sizes[k][r] != total:
                    raise GlueMismatchError(
                        f"parts {gluing[0]} and {k} glue at rank {r} with level sizes "
                        f"{total} and {level_sizes[k][r]}"
                    )
            level.append((0, frozenset(gluing)))
        for k, part_sizes in enumerate(level_sizes):
            if r not in glue_sets[k]:
                level.append((total, frozenset([k])))
                total += part_sizes[r]
        sizes.append(total)
        blocks.append(level)

    # comparability between two glued levels must not depend on the part
    for r, r2 in combinations(range(rank + 1), 2):
        both = [k for k, gs in enumerate(glue_sets) if r in gs and r2 in gs]
        if len(both) > 1:
            first = compares[both[0]](r, r2)
            for k in both[1:]:
                if not np.array_equal(first, compares[k](r, r2)):
                    raise GlueInconsistentError(
                        f"parts {both[0]} and {k} disagree on comparability between "
                        f"glued ranks {r} and {r2}"
                    )

    _check_budget(sum(sizes), budget, "glue")
    return _GlueLayout(glue_sets, sizes, blocks)


def _carried(reach: np.ndarray, poset: RankedPoset, r: int) -> np.ndarray:
    """0/1 rows over level r of ``poset`` carried up to level r + 1: each
    row is gathered by the lower element of each cover and summed, as a
    logical or, by its upper element."""
    covers = poset.cover_arrays[r]
    row, cover = reach[:, covers[:, 0]].nonzero()
    out = np.zeros((len(reach), poset.level_sizes[r + 1]), dtype=bool)
    out[row, covers[cover, 1]] = True
    return out


def _comparability_rows(poset: RankedPoset, r1: int, r2: int) -> np.ndarray:
    """The 0/1 comparability of level r1 with level r2 of ``poset``: the
    rows of level r1 carried up its cover arrays one level at a time,
    with no matrix product."""
    reach = np.eye(poset.level_sizes[r1], dtype=bool)
    for r in range(r1, r2):
        reach = _carried(reach, poset, r)
    return reach


def _glued(layout: _GlueLayout, posets: Sequence[RankedPoset]) -> RankedPoset:
    """The glue of a checked layout, from its parts' posets: each part's
    covers, shifted to the first indices of its blocks."""
    starts = [{k: x for x, ks in level for k in ks} for level in layout.blocks]
    # parts glued at both ends of a level repeat their (equal) covers there;
    # the constructor sorts the rows and drops the repeats
    covers = [
        np.concatenate(
            [p.cover_arrays[r] + (starts[r][k], starts[r + 1][k]) for k, p in enumerate(posets)]
        )
        for r in range(posets[0].rank)
    ]
    return RankedPoset(posets[0].rank, layout.sizes, covers)


# -- interval systems on a chain --------------------------------------


def validate_even_interval_system(n: int, intervals: Sequence[Interval]) -> list[str]:
    """Diagnostics for a system of intervals of [1, n]: each interval must
    have even cardinality, and the system must be an antichain with all
    pairwise intersections of even cardinality.  Empty list means valid.
    """
    out = []
    for a, b in intervals:
        if not 1 <= a <= b <= n:
            out.append(f"interval [{a}, {b}] not within [1, {n}]")
        elif (b - a + 1) % 2:
            out.append(f"interval [{a}, {b}] has odd cardinality {b - a + 1}")
    seen = set()
    for a, b in intervals:
        if (a, b) in seen:
            out.append(f"interval [{a}, {b}] listed twice")
        seen.add((a, b))
    for (a, b), (c, d) in combinations(intervals, 2):
        if (a <= c and d <= b) or (c <= a and b <= d):
            if (a, b) != (c, d):
                out.append(f"interval [{c}, {d}] nests inside [{a}, {b}]")
            continue
        overlap = min(b, d) - max(a, c) + 1
        if overlap > 0 and overlap % 2:
            out.append(
                f"intervals [{a}, {b}] and [{c}, {d}] intersect in {overlap} ranks"
            )
    return out


def even_interval_systems(n: int) -> list[tuple[Interval, ...]]:
    """All nonempty valid even interval systems on [1, n], in a fixed order."""
    singles = [
        (a, b)
        for a in range(1, n + 1)
        for b in range(a + 1, n + 1, 2)
    ]
    out = []
    for k in range(1, len(singles) + 1):
        for combo in combinations(singles, k):
            if not validate_even_interval_system(n, combo):
                out.append(combo)
    return out
