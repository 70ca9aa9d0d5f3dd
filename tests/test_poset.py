"""Core poset model: validation, duality, comparability, chain counts, and
the Eulerian test, all pinned against the brute-force oracles."""

import numpy as np
import pytest

from cdposets import (
    BudgetError,
    IntervalViolation,
    RankedPoset,
    boolean,
    build_poset,
    chain,
    horizontal_double,
    join,
    parse_expression,
)
from cdposets import poset as poset_module
from cdposets.poset import exact_float_dtype

import oracles


def test_chain_shape():
    c = chain(4)
    assert c.rank == 4
    assert c.level_sizes == (1, 1, 1, 1, 1)
    assert c.validate() == []
    assert c.count_maximal_chains() == 1


def test_chain_requires_positive_rank():
    with pytest.raises(ValueError):
        chain(0)


def test_boolean_shape():
    b = boolean(3)
    assert b.level_sizes == (1, 3, 3, 1)
    assert b.validate() == []
    assert b.count_maximal_chains() == 6
    assert boolean(4).count_maximal_chains() == 24


def test_budget_enforced():
    with pytest.raises(BudgetError):
        boolean(4, budget=10)
    with pytest.raises(BudgetError):
        chain(100, budget=50)


@pytest.mark.parametrize("k", [poset_module._HUGE_POWER, poset_module._HUGE_POWER + 1])
def test_boolean_budget_names_huge_counts_as_powers(k):
    # both sides of the rank past which 2**k is no longer formed
    with pytest.raises(BudgetError, match=rf"^boolean\({k}\) would have 2\^{k} elements, "):
        poset_module.boolean_sizes(k)


def test_boolean_budget_is_exact_at_powers_of_two():
    assert poset_module.boolean_sizes(3, budget=8) == [1, 3, 3, 1]
    with pytest.raises(BudgetError, match=r"^boolean\(3\) would have 8 elements, budget is 7$"):
        poset_module.boolean_sizes(3, budget=7)
    with pytest.raises(BudgetError, match="budget is 0$"):
        poset_module.boolean_sizes(10**12, budget=0)


def test_immutable():
    c = chain(2)
    with pytest.raises(AttributeError):
        c.rank = 5


def test_to_from_dict_round_trip():
    b = boolean(3)
    data = b.to_dict()
    assert data["rank"] == 3
    assert data["level_sizes"] == [1, 3, 3, 1]
    assert all(pairs == sorted(pairs) for pairs in data["covers"])
    assert RankedPoset.from_dict(data) == b


def test_from_dict_accepts_broken_structure_for_diagnosis():
    data = {"rank": 2, "level_sizes": [1, 2, 1], "covers": [[[0, 0]], [[0, 0]]]}
    p = RankedPoset.from_dict(data)
    diags = p.validate()
    assert diags
    assert any("cover" in d for d in diags)


@pytest.mark.parametrize(
    "data,message",
    [
        ({"rank": True, "level_sizes": [1, True], "covers": [[[0, False]]]}, "rank must be an integer"),
        ({"rank": 1, "level_sizes": [1, True], "covers": [[[0, 0]]]}, "level_sizes must be a list of integers"),
        ({"rank": 1, "level_sizes": [1, 1], "covers": [[[0, False]]]}, "bad cover pair [0, False]"),
        ({"rank": 1, "level_sizes": [1, 1], "covers": [[[True, 0]]]}, "bad cover pair [True, 0]"),
        ({"rank": 2, "level_sizes": [1, 1, 1], "covers": [5, [[0, 0]]]}, "covers must be a list of lists of pairs"),
        ({"rank": 2, "level_sizes": [1, 1, 1], "covers": [[[0, 0]], None]}, "covers must be a list of lists of pairs"),
    ],
)
def test_from_dict_rejects_booleans(data, message):
    with pytest.raises(ValueError) as info:
        RankedPoset.from_dict(data)
    assert str(info.value) == message
    integers = {"rank": 1, "level_sizes": [1, 1], "covers": [[[0, 0]]]}
    assert RankedPoset.from_dict(integers) == chain(1)


def test_validate_reports_bad_shapes():
    p = RankedPoset(2, (1, 0, 1), ((), ()))
    assert any("empty" in d for d in p.validate())
    q = RankedPoset(2, (2, 1, 1), (((0, 0), (1, 0)), ((0, 0),)))
    assert any("level 0" in d for d in q.validate())


def test_validate_refuses_rank_zero():
    assert RankedPoset(0, [1], []).validate() == ["rank must be at least 1, got 0"]


def test_dual_involution_and_sizes(corpus):
    for name, p in corpus:
        d = p.dual()
        assert d.level_sizes == tuple(reversed(p.level_sizes)), name
        assert d.dual() == p, name


def test_comparability_against_closure(small_corpus):
    for name, p in small_corpus:
        rel = oracles.closure(p.level_sizes, [sorted(c) for c in p.covers])
        for r1 in range(p.rank + 1):
            for r2 in range(r1, p.rank + 1):
                mat = p.comparability(r1, r2)
                for i in range(p.level_sizes[r1]):
                    for j in range(p.level_sizes[r2]):
                        expected = ((r1, i), (r2, j)) in rel or (r1, i) == (r2, j)
                        assert bool(mat[i, j]) == expected, (name, r1, r2, i, j)


def test_comparability_matrices_are_cached_and_frozen():
    # one cache, of the float matrices; comparability copies to int64
    b = boolean(3)
    assert b._float_comparability(0, 3) is b._float_comparability(0, 3)
    m = b.comparability(0, 3)
    assert m.dtype == np.int64
    with pytest.raises(ValueError):
        m[0, 0] = 7


def test_comparability_refuses_reversed_ranks():
    with pytest.raises(ValueError, match=r"^need 0 <= r1 <= r2 <= 2, got \(2, 1\)$"):
        chain(2).comparability(2, 1)


def test_count_maximal_chains_against_enumeration(small_corpus):
    for name, p in small_corpus:
        chains = oracles.maximal_chains(p.level_sizes, [sorted(c) for c in p.covers])
        assert p.count_maximal_chains() == len(chains), name


def test_eulerian_against_oracle(small_corpus):
    # the built poset reads the walk that built it, its copy the matrices
    for name, p in small_corpus:
        want = oracles.eulerian(p.level_sizes, [sorted(c) for c in p.covers])
        assert p.is_eulerian().eulerian == oracles.fresh(p).is_eulerian().eulerian == want, name


def test_eulerian_result_is_truthy():
    assert horizontal_double(chain(3)).is_eulerian()
    assert not chain(3).is_eulerian()


def test_chain_violation_details():
    result = chain(3).is_eulerian()
    v = result.violation
    assert (v.rank_low, v.index_low, v.rank_high, v.index_high) == (0, 0, 2, 0)
    assert (v.even_count, v.odd_count) == (2, 1)


def test_eulerian_catches_unbalanced_interval():
    # diamond with an extra rank on top: [bottom, top] has 2 even, 3 odd
    p = RankedPoset(
        3,
        (1, 2, 1, 1),
        (((0, 0), (0, 1)), ((0, 0), (1, 0)), ((0, 0),)),
    )
    assert p.validate() == []
    assert not p.is_eulerian().eulerian
    assert not oracles.eulerian(p.level_sizes, [sorted(c) for c in p.covers])


def test_comparability_composes(corpus):
    # transitivity through any middle rank reproduces the closure
    for name, p in corpus[:40]:
        for r1 in range(p.rank - 1):
            for r2 in range(r1 + 1, p.rank):
                lhs = p.comparability(r1, p.rank)
                via = (
                    p.comparability(r1, r2).astype(np.int64)
                    @ p.comparability(r2, p.rank).astype(np.int64)
                    > 0
                ).astype(np.int64)
                assert np.array_equal(lhs, via), (name, r1, r2)


def test_exact_float_dtype_bound():
    # float32 holds every integer below 2^24; at 2^24 + 1 it starts rounding
    assert exact_float_dtype(2**24 - 1) is np.float32
    assert exact_float_dtype(2**24) is np.float64
    assert int(np.float32(2**24 - 1)) == 2**24 - 1
    assert int(np.float32(2**24 + 1)) != 2**24 + 1


def test_kernel_takes_dtype_from_the_poset(monkeypatch):
    # a poset read from a dict has passed no element budget; the kernel must
    # still size its dtype from the poset, and float64 gives the same answers
    data = build_poset(parse_expression("dni(boolean(5),2,4,2)")).to_dict()
    expected = RankedPoset.from_dict(data).is_eulerian()
    seen = []

    def recording(num_elements):
        seen.append(num_elements)
        return np.float64

    monkeypatch.setattr(poset_module, "exact_float_dtype", recording)
    p = RankedPoset.from_dict(data)
    assert p.is_eulerian() == expected
    assert seen and set(seen) == {p.num_elements}
    assert p.comparability(0, p.rank).tolist() == [[1]]


def test_validate_reports_out_of_range_covers_in_order():
    # the set iterates these in another order than sorted
    covers = ((0, 5), (3, 0), (0, 0), (0, 1), (7, 0), (2, 9), (0, 4))
    p = RankedPoset(2, (1, 2, 1), (covers, ((0, 0), (1, 0))))
    assert list(p.covers[0]) != sorted(p.covers[0])
    assert p.validate() == [
        "cover (0, 4) at level 0 is out of range",
        "cover (0, 5) at level 0 is out of range",
        "cover (2, 9) at level 0 is out of range",
        "cover (3, 0) at level 0 is out of range",
        "cover (7, 0) at level 0 is out of range",
    ]


def _unbalanced_above_atom():
    # [bottom, y] is balanced for every y, but atom 1 lies below all three
    # coatoms, so [atom 1, top] has 2 even and 3 odd elements
    return RankedPoset(
        3,
        (1, 3, 3, 1),
        (
            ((0, 0), (0, 1), (0, 2)),
            ((0, 0), (1, 0), (0, 1), (1, 1), (1, 2), (2, 2)),
            ((0, 0), (1, 0), (2, 0)),
        ),
    )


def _two_unbalanced_halves():
    # two copies of the middle of _unbalanced_above_atom under coatoms y0 and
    # y1; atom 0 lies in the copy under y1 and atom 1 in the one under y0,
    # so (atom 0, y1) comes first in index_low order, (atom 1, y0) would come
    # first in index_high order
    return RankedPoset(
        4,
        (1, 6, 6, 2, 1),
        (
            {(0, i) for i in range(6)},
            (
                (1, 0), (2, 0), (1, 1), (2, 1), (1, 2), (3, 2),
                (4, 3), (5, 3), (4, 4), (5, 4), (4, 5), (0, 5),
            ),
            ((0, 0), (1, 0), (2, 0), (3, 1), (4, 1), (5, 1)),
            ((0, 0), (1, 0)),
        ),
    )


def _non_eulerian_posets():
    yield "atom", _unbalanced_above_atom()
    yield "boolean(2)+atom", join(boolean(2), _unbalanced_above_atom())
    yield "dual atom", _unbalanced_above_atom().dual()
    yield "two halves", _two_unbalanced_halves()
    for expr in (
        "dni(boolean(5),2,4,2)",
        "dni(lemma2(7,1),2,5,2)",
        "dni(lemma2(7,2),2,5,2)",
        "dual(dni(boolean(6),1,2,3))",
    ):
        built = build_poset(parse_expression(expr))
        yield expr, built
        # without the walk, so by matrix products
        yield f"{expr} from its covers", oracles.fresh(built)
    rng = np.random.default_rng(7)
    for k in range(12):
        sizes = [1, *rng.integers(2, 9, size=int(rng.integers(2, 6))), 1]
        yield f"random {k}", oracles.random_graded(rng, sizes)


def test_first_violation_matches_oracle():
    positions = set()
    for name, p in _non_eulerian_posets():
        assert p.validate() == [], name
        expected = oracles.first_violation(p.level_sizes, [sorted(c) for c in p.covers])
        assert expected is not None, name
        v = p.is_eulerian().violation
        got = (v.rank_low, v.index_low, v.rank_high, v.index_high)
        assert got + (v.even_count, v.odd_count) == expected, name
        positions.add(got)
    # the cases reach past the bottom element and past index 0
    assert any(r1 > 0 and i > 0 for r1, i, _, _ in positions)
    assert any(j > 0 for _, _, _, j in positions)


def test_non_eulerian_wide_levels_pinned():
    # levels of up to 244 elements; counts recomputed exactly at the violation
    built = build_poset(parse_expression("dni(lemma2(7,2),2,5,2)"))
    for p in (built, oracles.fresh(built)):
        assert p.is_eulerian().violation == IntervalViolation(0, 0, 6, 0, 98, 94)
    v = _unbalanced_above_atom().is_eulerian().violation
    assert v == IntervalViolation(1, 1, 3, 0, 2, 3)
    v = _two_unbalanced_halves().is_eulerian().violation
    assert v == IntervalViolation(1, 0, 3, 1, 2, 1)


def test_covers_hold_the_int_pairs_they_were_given(corpus):
    """The constructor stores cover pairs as given, without converting
    each index: every construction and the file loader pass ints."""
    rng = np.random.default_rng(88)
    posets = [p for _, p in corpus]
    for _ in range(25):
        sizes = [1] + [int(rng.integers(1, 4)) for _ in range(int(rng.integers(0, 5)))] + [1]
        posets.append(oracles.random_graded(rng, sizes))
    for p in posets:
        converted = tuple(frozenset((int(i), int(j)) for i, j in cs) for cs in p.covers)
        assert p.covers == converted
        assert all(type(i) is int and type(j) is int for cs in p.covers for i, j in cs)
        assert RankedPoset.from_dict(p.to_dict()) == p

