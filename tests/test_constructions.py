"""Replication, doubling, join, glue, and the named poset families."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdposets import (
    BudgetError,
    GlueInconsistentError,
    GlueMismatchError,
    RankedPoset,
    boolean,
    build_poset,
    cd_index,
    chain,
    dp_poset,
    even_interval_systems,
    glue,
    horizontal_double,
    join,
    lemma2_poset,
    lemma3_poset,
    replicate_interval,
    validate_even_interval_system,
)
from cdposets import constructions
from cdposets.exprs import _lemma2_glue, _lemma3_glue

import oracles


# -- replicate_interval -------------------------------------------------


def test_replicate_identity_with_one_copy():
    c = chain(4)
    assert replicate_interval(c, 1, 3, 1) == c


def test_replicate_sizes_and_chains():
    p = replicate_interval(chain(4), 2, 3, 3)
    assert p.level_sizes == (1, 1, 3, 3, 1)
    assert p.validate() == []
    assert p.count_maximal_chains() == 3


def test_replicate_copies_have_no_cross_relations():
    p = replicate_interval(chain(4), 2, 3, 2)
    comp = p.comparability(2, 3)
    assert comp[0, 0] == 1 and comp[1, 1] == 1
    assert comp[0, 1] == 0 and comp[1, 0] == 0


def test_replicate_boundary_covers_fan_out():
    p = replicate_interval(chain(3), 1, 2, 2)
    assert sorted(p.covers[0]) == [(0, 0), (0, 1)]
    assert sorted(p.covers[2]) == [(0, 0), (1, 0)]


def test_replicate_range_checks():
    c = chain(4)
    with pytest.raises(ValueError):
        replicate_interval(c, 0, 2, 2)
    with pytest.raises(ValueError):
        replicate_interval(c, 2, 4, 2)
    with pytest.raises(ValueError):
        replicate_interval(c, 3, 2, 2)
    with pytest.raises(ValueError):
        replicate_interval(c, 1, 2, 0)
    with pytest.raises(BudgetError):
        replicate_interval(c, 1, 3, 10**7)


def test_replicate_index_convention():
    # copy t of old element i lands at t * old_size + i
    base = replicate_interval(chain(3), 1, 1, 2)
    p = replicate_interval(base, 1, 1, 2)
    assert p.level_sizes[1] == 4
    # all four rank-1 elements must cover the bottom and be covered by rank 2
    assert sorted(p.covers[0]) == [(0, 0), (0, 1), (0, 2), (0, 3)]


# -- horizontal_double --------------------------------------------------


def test_double_of_chain_is_all_c():
    for r in range(2, 8):
        p = horizontal_double(chain(r))
        assert p.level_sizes == (1,) + (2,) * (r - 1) + (1,)
        assert cd_index(p).terms == {"c" * (r - 1): 1}


def test_double_identity_on_rank_one():
    assert horizontal_double(chain(1)) == chain(1)


def test_double_chain_count():
    assert horizontal_double(chain(4)).count_maximal_chains() == 8
    assert horizontal_double(boolean(3)).count_maximal_chains() == 6 * 4


def test_double_of_invalid_rank_one_poset_is_rejected():
    # the stepwise double made no replication at rank 1, so it returned an
    # invalid poset unvalidated; the one-map double validates like the rest
    bad = RankedPoset(1, (1, 2), [[(0, 0)]])
    assert oracles.horizontal_double_stepwise(bad) is bad
    with pytest.raises(ValueError) as info:
        horizontal_double(bad)
    assert str(info.value) == "invalid poset: level 1 must have exactly one element, got 2"


def test_double_builds_one_poset(monkeypatch):
    built = []
    fill = RankedPoset._fill

    def counting(self, *args):
        # every poset, through the constructor or from sorted rows
        built.append(args)
        fill(self, *args)

    def refuse(*args, **kwargs):
        raise AssertionError("horizontal_double called another construction")

    p = oracles.random_graded(np.random.default_rng(7), [1, 3, 2, 3, 2, 1])
    want = oracles.horizontal_double_stepwise(p)
    monkeypatch.setattr(RankedPoset, "_fill", counting)
    monkeypatch.setattr(constructions, "replicate_interval", refuse)
    assert horizontal_double(p) == want
    assert len(built) == 1


def _outcome(build, *args, **kwargs):
    try:
        return build(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)


def _random_posets():
    rng = np.random.default_rng(2024)
    for _ in range(25):
        rank = int(rng.integers(1, 6))
        sizes = [1] + [int(rng.integers(1, 4)) for _ in range(rank - 1)] + [1]
        yield oracles.random_graded(rng, sizes)


def _replications(p):
    for low in range(1, p.rank):
        for high in range(low, p.rank):
            for copies in (1, 2, 3):
                yield low, high, copies


def test_one_map_matches_stepwise_on_corpus(corpus):
    named = [*corpus, *((f"random {k}", p) for k, p in enumerate(_random_posets()))]
    for name, p in named:
        oracles.assert_same_poset(
            horizontal_double(p), oracles.horizontal_double_stepwise(p), name
        )
        for low, high, copies in _replications(p):
            expected = oracles.replicate_interval_stepwise(p, low, high, copies)
            got = replicate_interval(p, low, high, copies)
            oracles.assert_same_poset(got, expected, (name, low, high, copies))


def test_one_map_matches_stepwise_under_every_budget():
    for p in _random_posets():
        size = horizontal_double(p).num_elements
        for budget in range(size + 2):
            assert _outcome(horizontal_double, p, budget=budget) == _outcome(
                oracles.horizontal_double_stepwise, p, budget=budget
            )
        for low, high, copies in _replications(p):
            size = replicate_interval(p, low, high, copies).num_elements
            for budget in range(size + 2):
                assert _outcome(
                    replicate_interval, p, low, high, copies, budget=budget
                ) == _outcome(
                    oracles.replicate_interval_stepwise, p, low, high, copies, budget=budget
                )


@given(st.lists(st.integers(1, 40), min_size=1, max_size=9), st.integers(0, 400))
def test_doubled_sizes_match_replication_level_by_level(sizes, budget):
    # one running total gives the sizes and the first trip of the replay,
    # which the double reports under its own name
    def replayed():
        out = list(sizes)
        try:
            for r in range(1, len(sizes) - 1):
                out = constructions.replicated_sizes(out, r, r, 2, budget=budget)
        except BudgetError as exc:
            raise BudgetError(str(exc).replace("replicate_interval", "horizontal_double"))
        return out

    assert _outcome(constructions.doubled_sizes, sizes, budget=budget) == _outcome(replayed)


# -- join ---------------------------------------------------------------


def test_join_sizes_and_eulerian():
    p = join(boolean(3), boolean(2))
    assert p.level_sizes == (1, 3, 3, 2, 1)
    assert p.validate() == []
    assert p.is_eulerian().eulerian


def test_join_chain_identity():
    b = boolean(4)
    assert join(chain(1), b) == b
    assert join(b, chain(1)) == b


def test_join_multiplicative_on_pairs(joins):
    for name, left, right in joins:
        p = join(left, right)
        assert p.is_eulerian().eulerian, name
        assert cd_index(p) == cd_index(left) * cd_index(right), name


def test_join_associative_on_indices():
    a, b, c = boolean(2), horizontal_double(chain(3)), boolean(3)
    lhs = cd_index(join(join(a, b), c))
    rhs = cd_index(join(a, join(b, c)))
    assert lhs == rhs


# -- glue ---------------------------------------------------------------


def test_glue_single_part_is_identity():
    b = boolean(3)
    assert glue([(b, {0, 3})]) == b


def test_glue_requires_bottom_and_top():
    b = boolean(3)
    with pytest.raises(ValueError):
        glue([(b, {0, 1}), (b, {0, 1})])


def test_glue_needs_a_part():
    with pytest.raises(ValueError, match="^glue needs at least one part$"):
        glue([])


def test_glue_size_mismatch():
    with pytest.raises(GlueMismatchError):
        glue(
            [
                (boolean(3), {0, 1, 3}),
                (horizontal_double(chain(3)), {0, 1, 3}),
            ]
        )


def test_glue_inconsistent_relations():
    # same level sizes everywhere, but complete bipartite middle covers
    # induce a different rank-1-to-2 comparability than subset inclusion
    from cdposets import RankedPoset

    dense = RankedPoset(
        3,
        (1, 3, 3, 1),
        (
            {(0, i) for i in range(3)},
            {(i, j) for i in range(3) for j in range(3)},
            {(i, 0) for i in range(3)},
        ),
    )
    with pytest.raises(GlueInconsistentError):
        glue([(boolean(3), {0, 1, 2, 3}), (dense, {0, 1, 2, 3})])


def dense_disagreement(posets, sets):
    """The first disagreement as the comparability matrices show it, pairs
    of ranks in lexicographic order, or None."""
    for r, r2 in combinations(range(posets[0].rank + 1), 2):
        both = [k for k, gs in enumerate(sets) if r in gs and r2 in gs]
        for k in both[1:]:
            if not np.array_equal(
                posets[both[0]].comparability(r, r2), posets[k].comparability(r, r2)
            ):
                return f"parts {both[0]} and {k} disagree on comparability between glued ranks {r} and {r2}"
    return None


@settings(max_examples=200, deadline=None)
@given(st.integers(3, 6), st.data())
def test_glue_reports_the_first_disagreement(rank, data):
    # level sizes 1, 2, ..., 2, 1 throughout; the copies are linked across
    # all proper ranks, none, or all but one split
    split = data.draw(st.integers(1, rank - 2))
    twins = [
        replicate_interval(chain(rank), 1, rank - 1, 2),
        horizontal_double(chain(rank)),
        replicate_interval(replicate_interval(chain(rank), 1, split, 2), split + 1, rank - 1, 2),
    ]
    picks = data.draw(st.lists(st.sampled_from(range(3)), min_size=2, max_size=4))
    inner = st.sets(st.integers(1, rank - 1))
    sets = [{0, rank} | data.draw(inner) for _ in picks]
    posets = [twins[i] for i in picks]
    expected = dense_disagreement(posets, sets)
    if expected is None:
        glue(list(zip(posets, sets)))
    else:
        with pytest.raises(GlueInconsistentError) as info:
            glue(list(zip(posets, sets)))
        assert str(info.value) == expected


def test_glue_reports_the_lowest_pair_not_the_first_reached():
    # parts 0 and 2 disagree on ranks 2 and 3, parts 0 and 1 on ranks 1 and
    # 4: the pair (1, 4) comes first, though its upper rank is higher
    linked = replicate_interval(chain(5), 1, 4, 2)
    split = replicate_interval(replicate_interval(chain(5), 1, 3, 2), 4, 4, 2)
    parts = [
        (linked, {0, 1, 2, 3, 4, 5}),
        (split, {0, 1, 4, 5}),
        (horizontal_double(chain(5)), {0, 2, 3, 5}),
    ]
    message = "parts 0 and 1 disagree on comparability between glued ranks 1 and 4"
    assert dense_disagreement(*zip(*parts)) == message
    with pytest.raises(GlueInconsistentError) as info:
        glue(parts)
    assert str(info.value) == message


def test_glue_fully_identified_parts_collapse():
    d = horizontal_double(chain(2))
    assert glue([(d, {0, 1, 2}), (d, {0, 1, 2})]) == d


def test_glue_two_diamonds_side_by_side():
    # sharing only the bounds leaves four atoms: valid but no longer Eulerian
    d = horizontal_double(chain(2))
    p = glue([(d, {0, 2}), (d, {0, 2})])
    assert p.level_sizes == (1, 4, 1)
    assert p.validate() == []
    assert not p.is_eulerian().eulerian


# -- interval systems ----------------------------------------------------


def test_validate_even_interval_system():
    assert validate_even_interval_system(4, [(1, 2), (3, 4)]) == []
    assert validate_even_interval_system(6, [(1, 4), (3, 6)]) == []
    assert any("odd" in d for d in validate_even_interval_system(4, [(1, 3)]))
    assert any(
        "nests" in d for d in validate_even_interval_system(4, [(1, 4), (2, 3)])
    )
    assert any(
        "intersect" in d for d in validate_even_interval_system(6, [(1, 4), (4, 5)])
    )
    assert any("within" in d for d in validate_even_interval_system(4, [(0, 3)]))
    assert any(
        "twice" in d for d in validate_even_interval_system(4, [(1, 2), (1, 2)])
    )


def brute_even_systems(n):
    from itertools import combinations

    intervals = [
        (a, b) for a in range(1, n + 1) for b in range(a, n + 1) if (b - a) % 2 == 1
    ]
    out = []
    for size in range(1, len(intervals) + 1):
        for combo in combinations(intervals, size):
            ok = True
            for x in combo:
                for y in combo:
                    if x is y:
                        continue
                    xs = set(range(x[0], x[1] + 1))
                    ys = set(range(y[0], y[1] + 1))
                    if xs <= ys or ys <= xs or len(xs & ys) % 2:
                        ok = False
            if ok:
                out.append(list(combo))
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_even_interval_systems_match_brute_force(n):
    got = {tuple(sorted(sys_)) for sys_ in even_interval_systems(n)}
    want = {tuple(sorted(sys_)) for sys_ in brute_even_systems(n)}
    assert got == want


@pytest.mark.parametrize("n", range(9))
def test_even_interval_systems_keep_the_order_of_the_filter(n):
    # the corpus names, and so the benchmark's corpus jobs, follow this order
    assert even_interval_systems(n) == oracles.even_interval_systems_filter(n)


# -- dp family ------------------------------------------------------------


def test_dp_chain_count_reflects_extra_copy():
    # each interval is replicated into copies + 1 blocks before doubling
    assert dp_poset(4, [(1, 4)], 3).count_maximal_chains() == 2**4 * 4
    assert dp_poset(4, [(1, 2), (3, 4)], 2).count_maximal_chains() == 2**4 * 9
    assert dp_poset(2, [(1, 2)], 1).count_maximal_chains() == 2**2 * 2


def test_dp_rejects_bad_systems():
    with pytest.raises(ValueError):
        dp_poset(4, [(1, 3)], 2)
    with pytest.raises(ValueError):
        dp_poset(4, [(1, 2)], 0)


def test_dp_is_eulerian_for_all_small_systems():
    for n in range(2, 7):
        for sys_ in even_interval_systems(n):
            for copies in (1, 2):
                p = dp_poset(n, sys_, copies)
                assert p.is_eulerian().eulerian, (n, sys_, copies)
                assert oracles.fresh(p).is_eulerian().eulerian, (n, sys_, copies)


# -- the named families ---------------------------------------------------


def test_lemma3_values():
    for copies, want in [(1, 0), (2, -2), (3, -8)]:
        p = lemma3_poset(copies)
        assert p.rank == 7
        assert p.is_eulerian().eulerian and oracles.fresh(p).is_eulerian().eulerian
        assert cd_index(p).coefficient("ccdcc") == want


def test_lemma2_values():
    for copies, want in [(1, 0), (2, -48)]:
        p = lemma2_poset(7, copies)
        assert p.rank == 8
        assert p.is_eulerian().eulerian and oracles.fresh(p).is_eulerian().eulerian
        assert cd_index(p).coefficient("dcccd") == want


def test_lemma2_rejects_bad_rank():
    with pytest.raises(ValueError):
        lemma2_poset(6, 2)
    with pytest.raises(ValueError):
        lemma2_poset(5, 2)


def test_lemma2_glued_interval_count_identity():
    # identified elements x at rank 2, y at rank 6 of the pre-double poset:
    # [x, y] carries exactly one more even-rank element than odd-rank
    g = build_poset(_lemma2_glue(7, 2))
    even = odd = 0
    for r in range(2, 7):
        down = g.comparability(2, r)[0]
        up = g.comparability(r, 6)[:, 0]
        inside = int((down * up).sum())
        if r % 2 == 0:
            even += inside
        else:
            odd += inside
    assert even == odd + 1


def test_lemma3_glued_shares_ends():
    g = build_poset(_lemma3_glue(2))
    assert g.level_sizes[0] == g.level_sizes[7] == 1
    assert g.level_sizes[1] == g.level_sizes[6] == 2


def test_glued_families_eulerian_only_after_doubling():
    for p in (build_poset(_lemma3_glue(2)), lemma3_poset(2)):
        assert p.is_eulerian() == oracles.fresh(p).is_eulerian()
    assert not build_poset(_lemma3_glue(2)).is_eulerian().eulerian
    assert lemma3_poset(2).is_eulerian().eulerian


def test_small_constructions_against_oracle(small_corpus):
    for name, p in small_corpus:
        assert p.validate() == [], name
        want = oracles.eulerian(p.level_sizes, [sorted(c) for c in p.covers])
        assert p.is_eulerian().eulerian == oracles.fresh(p).is_eulerian().eulerian == want, name
