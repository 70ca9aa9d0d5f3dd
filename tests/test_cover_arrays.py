"""Cover levels stored as sorted integer arrays.

The dual, join and glue are compared with the tuple-set references in
``oracles`` on the corpus and on seeded random graded posets, in every
form ``oracles.assert_same_poset`` checks (``test_constructions`` does
the same for replication and doubling, under every budget too).  Broken
input keeps the diagnostics of the tuple-set representation, and chain
counts stay exact past int64.
"""

import json

import numpy as np
import pytest

from cdposets import (
    BudgetError,
    RankedPoset,
    build_poset,
    glue,
    join,
    parse_expression,
)
from cdposets.corpus import eulerian_corpus

import oracles

BIG = 10**30


@pytest.fixture(scope="module")
def posets():
    out = list(eulerian_corpus())
    rng = np.random.default_rng(1011)
    for k in range(25):
        sizes = [1] + [int(rng.integers(1, 5)) for _ in range(int(rng.integers(1, 6)))] + [1]
        out.append((f"random {k}", oracles.random_graded(rng, sizes)))
    assert len(out) == 176 + 25
    return out


def test_dual_matches_transposed_pairs(posets):
    for name, p in posets:
        oracles.assert_same_poset(p.dual(), oracles.dual_pairs(p), name)


def test_join_matches_pairs(posets):
    for (name, left), (other, right) in zip(posets, posets[1:] + posets[:1]):
        want = oracles.join_pairs(left, right)
        oracles.assert_same_poset(join(left, right), want, (name, other))
        # both sides of the budget
        total = want.num_elements
        oracles.assert_same_poset(join(left, right, budget=total), want, (name, other))
        with pytest.raises(BudgetError, match=f"^join would have {total} elements, "):
            join(left, right, budget=total - 1)


def test_glue_matches_pairs(posets):
    rng = np.random.default_rng(1012)
    by_rank = {}
    for name, p in posets:
        by_rank.setdefault(p.rank, []).append((name, p))
    for name, p in posets:
        # two copies of one poset glue consistently along any ranks; a
        # poset of the same rank glues with it at the bottom and top
        ends = {0, p.rank}
        some = ends | {r for r in range(1, p.rank) if rng.random() < 0.5}
        other_name, other = by_rank[p.rank][int(rng.integers(len(by_rank[p.rank])))]
        for parts in (
            [(p, range(p.rank + 1)), (p, some)],
            [(p, some), (p, ends), (other, ends)],
        ):
            want = oracles.glue_pairs(parts)
            oracles.assert_same_poset(glue(parts), want, (name, other_name, sorted(some)))
            with pytest.raises(BudgetError, match=f"^glue would have {want.num_elements} "):
                glue(parts, budget=want.num_elements - 1)


def _malformed():
    return {
        "duplicates": (2, (1, 2, 1), [[(0, 1), (0, 0), (0, 1), (0, 0)], [(1, 0), (0, 0), (1, 0)]]),
        "negative": (2, (1, 2, 1), [[(0, 0), (0, -1), (-2, 1), (0, 1)], [(0, 0), (1, 0), (-1, -1)]]),
        "huge": (
            2,
            (1, 2, 1),
            [[(0, BIG), (0, 0), (0, 1), (BIG, BIG), (0, BIG)], [(0, 0), (1, 0), (-BIG, 0)]],
        ),
        "int64 ends": (
            2,
            (1, 2, 1),
            [
                [(0, 2**63), (0, 2**63 - 1), (0, 0), (0, 1), (-(2**63), 0), (-(2**63) - 1, 0)],
                [(0, 0), (1, 0)],
            ],
        ),
        "missing covers": (
            3,
            (1, 3, 2, 1),
            [[(0, 0), (0, 2), (0, 0)], [(0, 0), (2, 0), (0, 0)], [(0, 0), (1, 0), (1, 0)]],
        ),
        "short levels": (3, (1, 2, 1), [[(0, BIG)], [(0, 0)]]),
    }


# the diagnostics the tuple-set representation gave for these inputs
MALFORMED_DIAGNOSTICS = {
    "duplicates": [],
    "negative": [
        "cover (-2, 1) at level 0 is out of range",
        "cover (0, -1) at level 0 is out of range",
        "cover (-1, -1) at level 1 is out of range",
    ],
    "huge": [
        f"cover (0, {BIG}) at level 0 is out of range",
        f"cover ({BIG}, {BIG}) at level 0 is out of range",
        f"cover (-{BIG}, 0) at level 1 is out of range",
    ],
    "int64 ends": [
        "cover (-9223372036854775809, 0) at level 0 is out of range",
        "cover (-9223372036854775808, 0) at level 0 is out of range",
        "cover (0, 9223372036854775807) at level 0 is out of range",
        "cover (0, 9223372036854775808) at level 0 is out of range",
    ],
    "missing covers": [
        "element (1, 1) has no down-cover",
        "element (1, 1) has no up-cover",
        "element (2, 1) has no down-cover",
    ],
    "short levels": ["expected 4 level sizes, got 3", "expected 3 cover levels, got 2"],
}


@pytest.mark.parametrize("case", sorted(MALFORMED_DIAGNOSTICS))
def test_malformed_covers_keep_their_diagnostics(case):
    rank, sizes, covers = _malformed()[case]
    direct = RankedPoset(rank, sizes, covers)
    data = {"rank": rank, "level_sizes": list(sizes), "covers": [[list(x) for x in cs] for cs in covers]}
    loaded = RankedPoset.from_dict(json.loads(json.dumps(data)))
    assert direct.validate() == loaded.validate() == MALFORMED_DIAGNOSTICS[case]
    assert direct == loaded and hash(direct) == hash(loaded)
    # the view and the dict hold each distinct pair once, as Python ints
    assert direct.covers == tuple(frozenset(cs) for cs in covers)
    assert direct.to_dict()["covers"] == [[list(x) for x in sorted(set(cs))] for cs in covers]
    assert all(type(i) is int and type(j) is int for cs in direct.covers for i, j in cs)


def test_check_eulerian_never_builds_the_covers_view(monkeypatch, capsys):
    from cdposets.cli import main

    def refuse(self):
        raise AssertionError("the covers view was built")

    monkeypatch.setattr(RankedPoset, "covers", property(refuse))
    assert main(["check-eulerian", "dp(8,[[1,4],[5,8]],3)"]) == 0
    assert main(["check-eulerian", "dual(dp(6,[[1,2],[3,6]],2))"]) == 0
    assert main(["check-eulerian", "dni(dp(4,[[1,4]],2),1,1,2)"]) == 1
    assert "covers view" not in capsys.readouterr().err


def test_chain_count_stays_exact_past_int64():
    # double^5(chain(14)): 13 proper levels of 32 elements and 2^65 chains
    p = build_poset(parse_expression("double(double(double(double(double(chain(14))))))"))
    counts = [1]
    for r, size in enumerate(p.level_sizes[1:]):
        nxt = [0] * size
        for i, j in p.covers[r]:
            nxt[j] += counts[i]
        counts = nxt
    assert p.count_maximal_chains() == counts[0] == 2**65
