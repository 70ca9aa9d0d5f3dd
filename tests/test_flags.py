"""Flag vectors, the h and L transforms, cd words and polynomials, and the
cd-index extraction, pinned against literal-sum oracles."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cdposets.flags as flags_mod
from cdposets import (
    BudgetError,
    CdPolynomial,
    FlagVector,
    LVector,
    NotCdExpressibleError,
    RankedPoset,
    boolean,
    cd_degree,
    cd_from_l,
    cd_index,
    cd_product,
    cd_support,
    cd_words,
    chain,
    d_intervals,
    expand_cd_to_ab,
    flag_from_h,
    flag_h,
    flag_vector,
    horizontal_double,
    inequality_f_form,
    inequality_l_form,
    inequality_pairs,
    l_vector,
)
from cdposets import exprs
from cdposets.exprs import build_poset, flag_vector_of, parse_expression
from cdposets.subsets import as_mask, is_even_set, ranks_from_mask, subset_label

import oracles
from oracles import fresh


# -- flag vectors --------------------------------------------------------


def test_flag_vector_boolean3():
    f = flag_vector(boolean(3))
    assert f.n == 2
    assert f[()] == 1
    assert f[{1}] == 3
    assert f[{2}] == 3
    assert f[{1, 2}] == 6


def test_flag_vector_matches_chain_enumeration(small_corpus):
    # the built poset reads the walk that built it, its copy the matrices
    for name, p in small_corpus:
        want = oracles.flag_counts(p.level_sizes, [sorted(c) for c in p.covers])
        for f in (flag_vector(p), flag_vector(fresh(p))):
            for ranks, count in want.items():
                assert f[ranks] == count, (name, sorted(ranks))


def _record_comparability(monkeypatch) -> list:
    """The (r1, r2) of every later RankedPoset.comparability call; of
    flag_vector's routes only the Python-integer one makes these copies."""
    calls = []
    original = RankedPoset.comparability

    def recording(self, r1, r2):
        calls.append((r1, r2))
        return original(self, r1, r2)

    monkeypatch.setattr(RankedPoset, "comparability", recording)
    return calls


def test_flag_vector_big_integer_path_agrees(monkeypatch):
    # force the Python-integer route on a poset that takes the float route
    p = boolean(6)
    fast = flag_vector(p)
    monkeypatch.setattr(flags_mod, "_FLOAT64_EXACT", 0)
    calls = _record_comparability(monkeypatch)
    slow = flag_vector(fresh(p))
    assert calls
    assert fast == slow


@pytest.mark.parametrize("k, bigint", [(14, False), (15, True)])
def test_built_flag_vector_either_side_of_2_to_53_chains(monkeypatch, k, bigint):
    # double^4(chain(k)) has 16^(k-1) maximal chains: 2^52 takes the float64
    # route and 2^56 the Python-integer one; f_S = 16^|S| either way.  A
    # copy without the walk takes the matrix products
    p = fresh(build_poset(parse_expression(f"double(double(double(double(chain({k})))))")))
    assert p.count_maximal_chains() == 16 ** (k - 1)
    assert (p.count_maximal_chains() >= flags_mod._FLOAT64_EXACT) == bigint
    calls = _record_comparability(monkeypatch)
    f = flag_vector(p)
    assert bool(calls) == bigint
    assert all(v == 16 ** bin(m).count("1") for m, v in f.items())


def test_corpus_float_route_matches_python_int_route(monkeypatch, corpus):
    def refuse(self, r1, r2):
        raise AssertionError(f"int64 comparability({r1}, {r2}) made")

    # below 2^53 chains, flag vectors and cd-indices make no int64 matrix;
    # each route runs on its own fresh posets, not on tables cached earlier
    with monkeypatch.context() as patch:
        patch.setattr(RankedPoset, "comparability", refuse)
        fast = [(flag_vector(q), cd_index(q)) for q in (fresh(p) for _, p in corpus)]
    monkeypatch.setattr(flags_mod, "_FLOAT64_EXACT", 0)
    calls = _record_comparability(monkeypatch)
    for (_, p), want in zip(corpus, fast):
        calls.clear()
        q = fresh(p)
        assert (flag_vector(q), cd_index(q)) == want
        assert calls


def _random_posets():
    rng = np.random.default_rng(11)
    for k in range(16):
        sizes = [1, *rng.integers(1, 6, size=int(rng.integers(1, 7))), 1]
        yield f"random {k}", oracles.random_graded(rng, sizes)


def test_flag_vector_matches_oracle_on_random_posets():
    for name, p in _random_posets():
        f = flag_vector(p)
        want = oracles.flag_counts(p.level_sizes, [sorted(c) for c in p.covers])
        assert to_table(f) == want, name


@pytest.mark.parametrize(
    "exact, entries",
    [(0, None), (None, 0), (None, 40), (0, 40)],
    ids=["object", "depth-first", "split", "object-split"],
)
def test_flag_vector_paths_agree(monkeypatch, exact, entries):
    posets = [p for _, p in _random_posets()]
    posets += [boolean(6), build_poset(parse_expression("dp(8,[[1,2],[3,8]],2)"))]
    want = [flag_vector(p) for p in posets]
    calls = _record_comparability(monkeypatch)
    if exact is not None:
        monkeypatch.setattr(flags_mod, "_FLOAT64_EXACT", exact)
    if entries is not None:
        monkeypatch.setattr(flags_mod, "_TABLE_ENTRIES", entries)
    splits = [(flags_mod._split_rank(p.level_sizes), p.n) for p in posets]
    if entries is None:
        assert all(k == 0 for k, _ in splits)
    elif entries == 0:
        assert all(k == n for k, n in splits)
    else:
        assert any(0 < k < n for k, n in splits)
    # the walk batches the ranks above the split once per mask of the ranks
    # up to it, so the splits it batched at show that each route ran
    batched_counts, used = flags_mod._batched_counts, []

    def recording(poset, comparability, at, vec, split):
        used.append(split)
        return batched_counts(poset, comparability, at, vec, split)

    monkeypatch.setattr(flags_mod, "_batched_counts", recording)
    assert [flag_vector(fresh(p)) for p in posets] == want
    assert used == [k for k, _ in splits for _ in range(1 << k)]
    assert bool(calls) == (exact is not None)


# -- the flag table cached on the poset ------------------------------------


def _count_computed(monkeypatch) -> list:
    """The posets whose flag tables are computed by matrix products from
    now on."""
    computed = []
    original = flags_mod._computed_flag_vector

    def counting(poset):
        computed.append(poset)
        return original(poset)

    monkeypatch.setattr(flags_mod, "_computed_flag_vector", counting)
    return computed


def test_flag_vector_is_computed_once_per_poset(monkeypatch):
    computed = _count_computed(monkeypatch)
    p = fresh(build_poset(parse_expression("dp(4,[[1,2],[3,4]],2)")))
    first = flag_vector(p)
    assert flag_vector(p) is first
    assert cd_index(p) == cd_index(fresh(p))
    assert computed == [p, fresh(p)]


def test_built_poset_reads_its_table_from_its_walk_once(monkeypatch):
    computed = _count_computed(monkeypatch)
    walked = []
    plan_flags = exprs._Plan.flags

    def walking(plan):
        walked.append(plan)
        return plan_flags(plan)

    monkeypatch.setattr(exprs._Plan, "flags", walking)
    p = build_poset(parse_expression("dp(4,[[1,2],[3,4]],2)"))
    first = flag_vector(p)
    assert flag_vector(p) is first
    assert walked == [p._walk] and computed == []
    assert first == flag_vector(fresh(p))
    assert len(computed) == 1


def test_failed_flag_vector_caches_nothing():
    bad = RankedPoset.from_dict(
        {"rank": 2, "level_sizes": [1, 2, 1], "covers": [[[0, 0]], [[0, 0]]]}
    )
    message = "invalid poset: element (1, 1) has no down-cover"
    for _ in range(2):
        with pytest.raises(ValueError) as err:
            flag_vector(bad)
        assert str(err.value).startswith(message)
        assert bad._flags is None
    tall = chain(flags_mod.MAX_FLAG_RANKS + 2)
    for _ in range(2):
        with pytest.raises(BudgetError, match="flag vector over 21 proper ranks is out of budget"):
            flag_vector(tall)
        assert tall._flags is None
    # the walk checks the flag rank limit as the matrix products do
    built = build_poset(parse_expression("chain(22)"))
    assert built._walk is not None
    for _ in range(2):
        with pytest.raises(BudgetError, match="flag vector over 21 proper ranks is out of budget"):
            flag_vector(built)
        assert built._flags is None


def test_equality_and_hash_ignore_the_cached_table():
    p = build_poset(parse_expression("dp(4,[[1,4]],1)"))
    q = fresh(p)
    flag_vector(p)
    assert p._flags is not None and q._flags is None
    assert p._walk is not None and q._walk is None
    assert p.to_dict() == q.to_dict()
    assert p == q and hash(p) == hash(q)
    assert p.dual() == q.dual() and hash(p.dual()) == hash(q.dual())
    assert len({p, q}) == 1


def _assert_handed_dual_table_is_the_dual_table(p: RankedPoset, monkeypatch) -> None:
    """p's dual, taken once p holds its table, computes none of its own and
    holds the table that a rebuilt dual computes by matrix products, in
    the dtype of p's table."""
    flag_vector(p)
    with monkeypatch.context() as patch:
        computed = _count_computed(patch)
        handed = p.dual()
        assert flag_vector(handed) is handed._flags
        assert computed == []
        rebuilt = fresh(p).dual()
        assert rebuilt._flags is None
        assert flag_vector(handed) == flag_vector(rebuilt)
        assert computed == [rebuilt]
    held = [p._flags.array, handed._flags.array, rebuilt._flags.array]
    assert {a.dtype for a in held} == {p._flags.array.dtype}
    assert not any(a.flags.writeable for a in held)
    assert handed._flags.values == rebuilt._flags.values


def test_handed_dual_tables_on_the_corpus(monkeypatch, corpus):
    assert len(corpus) == 176
    for _, p in corpus:
        p = fresh(p)
        _assert_handed_dual_table_is_the_dual_table(p, monkeypatch)
        assert p._flags.array.dtype == np.int64


@pytest.mark.parametrize("doubles, rank", [(4, 15), (5, 14)])
def test_handed_dual_table_past_2_to_53_chains(monkeypatch, doubles, rank):
    # 2^56 and 2^65 maximal chains: both tables take the Python-integer
    # route, and the reversal keeps entries past 2^63 exact
    text = "double(" * doubles + f"chain({rank})" + ")" * doubles
    p = build_poset(parse_expression(text))
    chains = 2 ** (doubles * (rank - 1))
    assert p.count_maximal_chains() == chains >= flags_mod._FLOAT64_EXACT
    _assert_handed_dual_table_is_the_dual_table(p, monkeypatch)
    assert max(flag_vector(p.dual()).values) == chains
    # 2^56 fits in int64, 2^65 does not
    assert p._flags.array.dtype == (np.int64 if chains < 2**63 else object)


def test_split_rank_is_least_that_fits():
    def entries(sizes, k):
        return sum(sizes[s] << (s - k - 1) for s in range(k + 1, len(sizes)))

    # dp(20, [[1, 20]], 100): about 1.7 GB of int64 tables if all batched
    sizes = build_poset(parse_expression("dp(20,[[1,20]],100)")).level_sizes
    assert entries(sizes, 0) * 8 > 10**9
    k = flags_mod._split_rank(sizes)
    assert entries(sizes, k) <= flags_mod._TABLE_ENTRIES < entries(sizes, k - 1)
    assert flags_mod._split_rank((1, 8, 8, 1)) == 0


def test_flag_vector_beyond_int64():
    # 2^65 maximal chains, so the tables hold Python integers
    built = build_poset(parse_expression("double(double(double(double(double(chain(14))))))"))
    assert built.count_maximal_chains() == 32**13 >= flags_mod._FLOAT64_EXACT
    for p in (built, fresh(built)):
        f = flag_vector(p)
        assert all(v == 32 ** bin(m).count("1") for m, v in f.items())


def test_flag_vector_serialization_round_trip():
    f = flag_vector(boolean(4))
    data = f.to_dict()
    assert data["[]"] == "1"
    assert data["[1,2,3]"] == "24"
    assert FlagVector.from_dict(f.n, data) == f


# -- h and L transforms ---------------------------------------------------


def to_table(f):
    return {frozenset(ranks_from_mask(m)): v for m, v in f.items()}


def test_flag_h_matches_alternating_sum(small_corpus):
    for name, p in small_corpus[:12]:
        f = flag_vector(p)
        h = flag_h(f)
        want = oracles.h_from_f(to_table(f), f.n)
        for ranks, value in want.items():
            assert h[ranks] == value, (name, sorted(ranks))


@given(st.lists(st.integers(-50, 50), min_size=16, max_size=16))
def test_f_h_round_trip(values):
    f = FlagVector(4, values)
    assert flag_from_h(flag_h(f)).values == f.values
    assert flag_h(flag_from_h(f)).values == f.values


def test_l_vector_matches_signed_sum(small_corpus):
    for name, p in small_corpus[:12]:
        f = flag_vector(p)
        table = l_vector(f)
        want = oracles.l_from_f(to_table(f), f.n)
        for ranks, value in want.items():
            assert table[ranks] == value, (name, sorted(ranks))


def _random_tables():
    rng = random.Random(3)
    for n in (0, 1, 3, 5):
        for bound in (50, 2**63 // 3**n, 2**63 // 2**n, 2**70):
            yield FlagVector(n, [rng.randint(-bound, bound) for _ in range(1 << n)])
        # m * (-1)^|S| grows by exactly 2 per h stage and 3 per L stage, so
        # these reach 2^63 - 1 in int64 or just pass it
        for m in (2**63 - 1) // 3**n, (2**63 - 1) // 3**n + 1, (2**63 - 1) // 2**n + 1:
            for sign in (1, -1):
                yield FlagVector(n, [sign * m * (-1) ** bin(s).count("1") for s in range(1 << n)])


def test_butterflies_match_oracles_on_int64_and_object_values():
    for f in _random_tables():
        table = to_table(f)
        assert to_table(flag_h(f)) == oracles.h_from_f(table, f.n)
        want = oracles.l_from_f(table, f.n)
        assert {frozenset(ranks_from_mask(m)): v for m, v in l_vector(f).items()} == want
        assert flag_from_h(flag_h(f)) == f
        assert flag_h(flag_from_h(f)) == f


# each transform's stage on one (low, high) pair, as the formulas state it
_REFERENCE_STAGES = {
    flag_h: ("_h_stage", 2, lambda a, b: (a, b - a)),
    flag_from_h: ("_f_stage", 2, lambda a, b: (a, b + a)),
    l_vector: ("_l_stage", 3, lambda a, b: (b, 2 * a - b)),
}


def _object_transform(transform, f):
    """The transform of ``f`` on an object array of Python ints, and the
    largest absolute entry before each stage."""
    table, largest = f.array.astype(object), []
    for bit in range(f.n):
        largest.append(max(map(abs, table.tolist())))
        halves = table.reshape(-1, 2, 1 << bit)
        halves[:, 0], halves[:, 1] = _REFERENCE_STAGES[transform][2](halves[:, 0], halves[:, 1])
    return table, largest


def _stage_dtypes(monkeypatch, transform):
    """The dtype each stage of ``transform`` runs on, recorded as it runs."""
    name = _REFERENCE_STAGES[transform][0]
    stage, dtypes = getattr(flags_mod, name), []

    def recording(low, high):
        dtypes.append(low.dtype)
        stage(low, high)

    monkeypatch.setattr(flags_mod, name, recording)
    return dtypes


def test_l_transform_of_twenty_ranks_stays_int64(monkeypatch):
    # 3^20 times the largest flag entry, 2^40, passes 2^63, but before
    # every stage 3 times the largest entry stays below 2^63
    pairs = ",".join(f"[{2 * i + 1},{2 * i + 2}]" for i in range(10))
    f = flag_vector_of(parse_expression(f"dp(20,[{pairs}],3)"))
    assert f.array.dtype == np.int64 and 3**20 * int(f.array.max()) >= 2**63
    dtypes = _stage_dtypes(monkeypatch, l_vector)
    table = l_vector(f)
    assert dtypes == [np.int64] * 20
    want, _ = _object_transform(l_vector, f)
    assert table.array.dtype == np.int64 and table.array.tolist() == want.tolist()


@pytest.mark.parametrize(
    "transform,signed,m",
    [(flag_h, True, 2**58), (flag_from_h, False, 2**58), (l_vector, True, 2**55)],
    ids=["h", "from-h", "l"],
)
def test_butterflies_turn_to_python_ints_at_the_first_stage_that_could_overflow(
    monkeypatch, transform, signed, m
):
    # m * (-1)^|S| (m for flag_from_h) grows by the full factor each stage,
    # so growth^8 * m passes 2^63 and the stages cross it partway
    f = FlagVector(8, [m * (-1) ** (signed * bin(s).count("1")) for s in range(256)])
    growth = _REFERENCE_STAGES[transform][1]
    want, largest = _object_transform(transform, f)
    assert growth**8 * largest[0] >= 2**63
    first = next(k for k, big in enumerate(largest) if growth * big >= 2**63)
    assert 0 < first < 8
    dtypes = _stage_dtypes(monkeypatch, transform)
    table = transform(f)
    assert dtypes == [np.int64] * first + [object] * (8 - first)
    assert table.array.dtype == object and table.array.tolist() == want.tolist()
    assert max(map(abs, want.tolist())) >= 2**63


def test_l_vector_numerators_hash_and_denominators():
    table = l_vector(flag_vector(boolean(3)))
    assert table.numerators == (6, 0, 0, -2)
    same = LVector(2, table.values)
    assert same == table and hash(same) == hash(table)
    assert LVector.from_numerators(2, [6, 0, 0, -2]) == table
    assert LVector(2, [Fraction(1, 4), Fraction(1, 2), 1, 0]).numerators == (1, 2, 4, 0)
    assert LVector(2, [1, 0, 0, 0]) != table
    for bad in (Fraction(1, 3), Fraction(1, 8)):
        with pytest.raises(ValueError, match=r"\[2\] has a denominator not dividing 2\^2"):
            LVector(2, [0, 0, bad, 0])
    with pytest.raises(ValueError):
        LVector.from_numerators(2, [1, 2, 3])


# -- exact entries of the held arrays -------------------------------------

# the ends of int64 and the integers just past them
_INT64_EDGES = [2**63 - 1, 2**63, 2**64, -(2**63), -(2**63) - 1]


@pytest.mark.parametrize("edge", _INT64_EDGES)
def test_entries_at_the_ends_of_int64_round_trip_exactly(edge):
    values = [edge, 0, -1, edge]
    dtype = np.int64 if -(2**63) <= edge < 2**63 else object
    f = FlagVector(2, values)
    assert f.values == tuple(values) and f.array.dtype == dtype
    assert hash(f) == hash((2, tuple(values)))
    parsed = FlagVector.from_dict(2, f.to_dict())
    assert parsed == f and parsed.values == tuple(values) and parsed.array.dtype == dtype
    table = LVector.from_numerators(2, values)
    assert table.numerators == tuple(values) and table.array.dtype == dtype
    assert hash(table) == hash((2, tuple(values)))
    # l_vector is the identity at n = 0 and maps (a, b) to (b, 2a - b) at
    # n = 1, where 3 times the largest entry passes 2^63, so it runs on
    # Python ints; results that fit come back as int64 arrays
    for flags in FlagVector(0, [edge]), FlagVector(1, [edge, edge]):
        table = l_vector(flags)
        assert table.numerators == flags.values and table.array.dtype == dtype
        assert all(type(v) is int for v in table.numerators)


@pytest.fixture(scope="module")
def tables_by_route():
    """(flag table, its dtype, whether the poset is Eulerian), the table made
    each way: from an expression tree in int64 and in Python ints, from the
    float matrix products, and from the Python-integer products."""
    text = "dp(6,[[1,2],[3,6]],2)"
    # 2^8 * 20001^4 and 2^65 maximal chains, past 2^63
    huge = "dp(8,[[1,2],[3,4],[5,6],[7,8]],20000)"
    doubles = build_poset(parse_expression("double(" * 5 + "chain(14)" + ")" * 5))
    return [
        (flag_vector_of(parse_expression(text)), np.int64, True),
        (flag_vector(build_poset(parse_expression(text))), np.int64, True),
        (flag_vector_of(parse_expression(huge)), object, True),
        (flag_vector(doubles), object, False),
    ]


def test_every_accessor_gives_python_ints(tables_by_route):
    for f, dtype, eulerian in tables_by_route:
        assert f.array.dtype == dtype
        table = l_vector(f)
        ints = [*f.values, *flag_h(f).values, *table.numerators, f[0], f[f.n]]
        ints += [v for _, v in f.items()]
        fractions = [*table.values, table[0], *(v for _, v in table.items())]
        fractions += [v for _, v in table.nonzero()]
        pairs = list(inequality_pairs(f.n))[::97]
        ints += [inequality_f_form(f, t, v) for t, v in pairs]
        fractions += [inequality_l_form(table, t, v) for t, v in pairs]
        if eulerian:
            ints += list(cd_from_l(table).terms.values())
        ints += [q.numerator for q in fractions] + [q.denominator for q in fractions]
        assert {type(v) for v in ints} == {int}
        assert f.values is f.values and table.numerators is table.numerators


def test_held_arrays_are_read_only_and_transforms_leave_their_input(tables_by_route):
    for f, _, _ in tables_by_route:
        before = f.array.copy()
        made = [f, flag_h(f), flag_from_h(f), l_vector(f), FlagVector(f.n, f.values)]
        made.append(LVector.from_numerators(f.n, f.values))
        for table in made:
            assert not table.array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            f.array[0] = 0
        assert f.array.dtype == before.dtype and np.array_equal(f.array, before)


def test_l_vector_boolean3_values():
    table = l_vector(flag_vector(boolean(3)))
    assert table[()] == Fraction(3, 2)
    assert table[{1, 2}] == Fraction(-1, 2)
    assert table[{1}] == 0
    assert table[{2}] == 0


def test_l_vector_denominators_divide_power_of_two(corpus):
    for name, p in corpus[:60]:
        table = l_vector(flag_vector(p))
        for _, value in table.items():
            assert (1 << table.n) % value.denominator == 0, name


def test_eulerian_l_vectors_live_on_even_sets(corpus):
    from cdposets import is_even_set

    for name, p in corpus[:60]:
        table = l_vector(flag_vector(p))
        for mask, value in table.nonzero():
            assert is_even_set(mask), (name, ranks_from_mask(mask))


# -- cd words -------------------------------------------------------------


def test_cd_words_fibonacci_counts():
    fib = [1, 1]
    for _ in range(12):
        fib.append(fib[-1] + fib[-2])
    for n in range(0, 13):
        assert len(cd_words(n)) == fib[n]


def test_cd_words_small():
    assert cd_words(0) == [""]
    assert cd_words(1) == ["c"]
    assert cd_words(2) == ["cc", "d"]
    assert cd_words(3) == ["ccc", "cd", "dc"]


def test_cd_words_refuses_bad_degrees():
    with pytest.raises(ValueError, match="^degree must be nonnegative, got -1$"):
        cd_words(-1)
    with pytest.raises(BudgetError, match="^enumerating cd words of degree 21 is out of budget$"):
        cd_words(21)


def test_cd_degree_and_support():
    assert cd_degree("") == 0
    assert cd_degree("cdc") == 4
    assert cd_support("cdc") == as_mask([2, 3])
    assert cd_support("dd") == as_mask([1, 2, 3, 4])
    assert d_intervals("dd") == [(1, 2), (3, 4)]
    assert d_intervals("cdcd") == [(2, 3), (5, 6)]
    with pytest.raises(ValueError):
        cd_degree("cx")


# junk at the start, middle and end, and words that are not strings
@pytest.mark.parametrize("word", ["xc", "cxd", "c d", "cdx", "x", 7, None, ["c"]])
def test_check_word_refuses_any_other_letter(word):
    message = f"cd word must consist of letters c and d, got {word!r}"
    for check in (cd_degree, d_intervals, CdPolynomial(0, {}).coefficient):
        with pytest.raises(ValueError) as err:
            check(word)
        assert str(err.value) == message


# -- cd polynomial algebra --------------------------------------------------


def test_polynomial_basics():
    c = CdPolynomial.monomial("c")
    d = CdPolynomial.monomial("d")
    assert (c * c + 2 * d).terms == {"cc": 1, "d": 2}
    assert (c * c - 2 * d).coefficient("d") == -2
    assert ((c + c) * d).terms == {"cd": 2}
    assert (c**3).terms == {"ccc": 1}
    assert (d**0).terms == {"": 1}
    assert str(c * c - 2 * d) == "cc - 2*d"


def test_polynomial_degree_mismatch_rejected():
    c = CdPolynomial.monomial("c")
    d = CdPolynomial.monomial("d")
    with pytest.raises(ValueError):
        c + d
    with pytest.raises(ValueError):
        CdPolynomial(3, {"d": 1})


small_polys = st.builds(
    CdPolynomial,
    st.just(2),
    st.dictionaries(st.sampled_from(["cc", "d"]), st.integers(-5, 5), max_size=2),
)


@given(small_polys, small_polys, small_polys)
def test_product_is_associative_and_distributes(p, q, r):
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(small_polys, small_polys)
def test_reverse_is_an_antiautomorphism(p, q):
    assert (p * q).reverse() == q.reverse() * p.reverse()
    assert p.reverse().reverse() == p


def test_cd_product_alias():
    p = CdPolynomial.monomial("cd")
    q = CdPolynomial.monomial("dc")
    assert cd_product(p, q) == p * q
    assert cd_product(p, q).terms == {"cddc": 1}


# -- ab expansion ------------------------------------------------------------


@pytest.mark.parametrize("word", ["c", "d", "cc", "cd", "dc", "ccc", "dd", "cdc"])
def test_expand_single_words_match_substitution(word):
    got = expand_cd_to_ab(CdPolynomial.monomial(word))
    want = oracles.ab_words_of_cd(word)
    for ab_word, mult in want.items():
        mask = as_mask([k + 1 for k, ch in enumerate(ab_word) if ch == "b"])
        assert got[mask] == mult, (word, ab_word)


def test_ab_index_equals_expanded_cd_index(corpus):
    for name, p in corpus[:60]:
        h = flag_h(flag_vector(p))
        assert expand_cd_to_ab(cd_index(p)) == h, name


@st.composite
def cd_polys(draw):
    """Polynomials of degree at most 10, small or past int64."""
    n = draw(st.integers(0, 10))
    shift = draw(st.sampled_from([0, 40, 62, 70]))
    terms = draw(st.dictionaries(st.sampled_from(cd_words(n)), st.integers(-9, 9), max_size=20))
    return CdPolynomial(n, {w: c << shift for w, c in terms.items()})


@given(cd_polys())
def test_expand_cd_to_ab_is_the_substitution(poly):
    ab = oracles.ab_of_cd(poly)
    want = FlagVector(poly.n, [ab.get(mask, 0) for mask in range(1 << poly.n)])
    assert expand_cd_to_ab(poly) == want


@pytest.mark.parametrize(
    "poly",
    [
        CdPolynomial(0, {}),
        CdPolynomial(6, {}),
        CdPolynomial(0, {"": -5}),
        CdPolynomial(1, {"c": 3}),
        CdPolynomial(5, {"cdd": 2**64 + 1, "dccc": -(2**70), "ccccc": 7}),
    ],
)
def test_expand_cd_to_ab_matches_the_oracle_at_the_edges(poly):
    # the zero polynomial, the one word of degree 0 and of degree 1, and
    # coefficients past int64, which make the table Python ints
    ab = oracles.ab_of_cd(poly)
    got = expand_cd_to_ab(poly)
    assert got == FlagVector(poly.n, [ab.get(mask, 0) for mask in range(1 << poly.n)])
    big = any(abs(c) >= 2**63 for c in poly.terms.values())
    assert got.array.dtype == (object if big else np.int64)


def test_expand_cd_to_ab_refuses_degrees_past_the_flag_rank_cap():
    assert np.count_nonzero(expand_cd_to_ab(CdPolynomial.monomial("d" * 10)).array) == 2**10
    with pytest.raises(BudgetError, match="degree 22 is out of budget"):
        expand_cd_to_ab(CdPolynomial.monomial("d" * 11))


# -- cd extraction ------------------------------------------------------------


def test_cd_index_boolean_values():
    assert cd_index(boolean(3)).terms == {"cc": 1, "d": 1}
    assert cd_index(boolean(4)).terms == {"ccc": 1, "cd": 2, "dc": 2}


def test_cd_index_double_of_chain():
    assert cd_index(horizontal_double(chain(5))).terms == {"cccc": 1}


def test_cd_index_rejects_non_eulerian_chain():
    with pytest.raises(NotCdExpressibleError) as exc_info:
        cd_index(chain(4))
    assert exc_info.value.mask is not None


def _random_even_tables():
    rng = random.Random(5)
    for n in range(9):
        even = [m for m in range(1 << n) if is_even_set(m)]
        # numerators in multiples of 2^n always give integral coefficients
        for unit in (1 << n, 1 << max(n - 2, 0), 1):
            for _ in range(3):
                numerators = [0] * (1 << n)
                for m in rng.sample(even, rng.randint(1, len(even))):
                    numerators[m] = unit * rng.randint(-9, 9)
                yield LVector.from_numerators(n, numerators)


def test_cd_from_l_matches_scan_on_random_even_tables():
    outcomes = set()
    for table in _random_even_tables():
        try:
            want = oracles.cd_from_l_scan(table)
        except RuntimeError as exc:
            with pytest.raises(RuntimeError) as got:
                cd_from_l(table)
            assert str(got.value) == str(exc)
            outcomes.add("non-integral")
        else:
            assert list(cd_from_l(table).terms.items()) == list(want.terms.items())
            outcomes.add("integral")
    assert outcomes == {"integral", "non-integral"}


def test_cd_from_l_reports_first_non_even_set_like_scan():
    rng = random.Random(9)
    tables = [l_vector(flag_vector(chain(4))), l_vector(flag_vector(chain(7)))]
    for n in (3, 5, 8):
        odd = [m for m in range(1 << n) if not is_even_set(m)]
        for _ in range(4):
            numerators = [rng.randint(-3, 3) * (m % 3 == 0) for m in range(1 << n)]
            numerators[rng.choice(odd)] = rng.choice([-1, 1]) * rng.randint(1, 1 << n)
            tables.append(LVector.from_numerators(n, numerators))
    for table in tables:
        with pytest.raises(NotCdExpressibleError) as want:
            oracles.cd_from_l_scan(table)
        with pytest.raises(NotCdExpressibleError) as got:
            cd_from_l(table)
        assert str(got.value) == str(want.value)
        assert got.value.mask == want.value.mask


def test_cd_from_l_round_trips_through_flags(corpus):
    for name, p in corpus[:40]:
        table = l_vector(flag_vector(p))
        assert cd_from_l(table) == cd_index(p), name


def test_cd_index_of_join_is_product(joins):
    from cdposets import join

    for name, left, right in joins:
        assert cd_index(join(left, right)) == cd_index(left) * cd_index(right), name


_EVEN_SETS = [[m for m in range(1 << n) if is_even_set(m)] for n in range(13)]


@st.composite
def even_tables(draw, min_ranks=0):
    """L numerators on up to 12 even sets of at most 12 ranks, in units of
    1 (whose words are mostly non-integral), 2^n (integral) or 2^61 to
    2^70 (int64 input, a switch to Python ints partway, or object input)."""
    n = draw(st.integers(min_ranks, 12))
    unit = draw(
        st.one_of(st.just(1), st.just(1 << n), st.integers(61, 70).map(lambda k: 1 << k))
    )
    entries = draw(
        st.dictionaries(st.sampled_from(_EVEN_SETS[n]), st.integers(-9, 9), max_size=12)
    )
    numerators = [0] * (1 << n)
    for mask, k in entries.items():
        numerators[mask] = k * unit
    return numerators


def _outcome(convert, table):
    try:
        poly = convert(table)
    except (RuntimeError, NotCdExpressibleError) as exc:
        return type(exc), str(exc), getattr(exc, "mask", None)
    return poly.n, list(poly.terms.items())


@given(even_tables())
def test_cd_from_l_is_the_scan_on_even_tables(numerators):
    table = LVector.from_numerators(len(numerators).bit_length() - 1, numerators)
    assert _outcome(cd_from_l, table) == _outcome(oracles.cd_from_l_scan, table)


@given(even_tables(min_ranks=1), st.data())
def test_cd_from_l_reports_one_odd_set_like_scan(numerators, data):
    odd = data.draw(st.sampled_from([m for m in range(len(numerators)) if not is_even_set(m)]))
    numerators[odd] = data.draw(st.integers(1, 2**70)) * data.draw(st.sampled_from([-1, 1]))
    table = LVector.from_numerators(len(numerators).bit_length() - 1, numerators)
    got = _outcome(cd_from_l, table)
    assert got[0] is NotCdExpressibleError and got[2] == odd
    assert got == _outcome(oracles.cd_from_l_scan, table)


@pytest.mark.parametrize("unit", [2**40, 2**57, 2**63], ids=["int64", "switch", "object"])
def test_superset_sums_turn_to_python_ints_at_the_first_stage_that_could_overflow(
    monkeypatch, unit
):
    # unit on every even set of [1, 10], moved onto the pair-start masks
    # of [1, 9]; the sums grow to 89 units at the empty mask
    table = LVector.from_numerators(10, [unit * is_even_set(m) for m in range(1 << 10)])
    sums, largest = [0] * (1 << 9), []
    for pairs in range(1 << 9):
        sums[pairs] = table.numerators[pairs | pairs << 1] * (pairs & pairs >> 1 == 0)
    for bit in range(9):
        largest.append(max(map(abs, sums)))
        for pairs in range(1 << 9):
            if not pairs >> bit & 1:
                sums[pairs] += sums[pairs | 1 << bit]
    # the table turns at the first stage that could double past 2^63; an
    # input past int64 is an object array from the start
    first = next((k for k, big in enumerate(largest) if 2 * big >= 2**63), 9)
    assert {2**40: first == 9, 2**57: 0 < first < 9, 2**63: first == 0}[unit]
    stage, dtypes = flags_mod._superset_stage, []

    def recording(low, high):
        dtypes.append(low.dtype)
        stage(low, high)

    monkeypatch.setattr(flags_mod, "_superset_stage", recording)
    got = cd_from_l(table)
    assert dtypes == [np.int64] * first + [object] * (9 - first)
    assert list(got.terms.items()) == list(oracles.cd_from_l_scan(table).terms.items())


def test_cd_from_l_converts_a_sparse_table_past_the_flag_rank_cap():
    # the L table of dp(21, {[1,2], ..., [19,20]}, N): L_Q = (-N)^|K|
    # (N+1)^(10-|K|) on each union Q of a set K of the pairs, whose
    # cd-index is (cc + 2N d)^10 c
    n, N = 21, 3
    numerators = [0] * (1 << n)
    for pairs in range(1 << 10):
        k = bin(pairs).count("1")
        mask = sum(0b11 << 2 * i for i in range(10) if pairs >> i & 1)
        numerators[mask] = (-N) ** k * (N + 1) ** (10 - k) << n
    table = LVector.from_numerators(n, numerators)
    cc, d, c = (CdPolynomial.monomial(w) for w in ("cc", "d", "c"))
    assert cd_from_l(table) == (cc + 2 * N * d) ** 10 * c


def test_cd_index_at_the_flag_rank_cap_is_the_product_of_the_parts():
    def l_of(text):
        return l_vector(flag_vector_of(parse_expression(text)))

    # 20 proper ranks, and an L table nonzero on most of the even sets
    table = l_of("join(boolean(10),boolean(12))")
    assert table.n == 20 and 2 * np.count_nonzero(table.array) > len(cd_words(20))
    product = cd_from_l(l_of("boolean(10)")) * cd_from_l(l_of("boolean(12)"))
    assert cd_from_l(table) == product


def test_cd_index_of_boolean_19_expands_to_its_h_table():
    f = flag_vector_of(parse_expression("boolean(19)"))
    assert expand_cd_to_ab(cd_from_l(l_vector(f))) == flag_h(f)


@pytest.mark.parametrize("nonzero", [0, 1, 7, 8, 9, 40, 64])
def test_table_dicts_label_like_subset_label(nonzero):
    # LVector.to_dict labels sparse tables mask by mask and dense ones from
    # subset_labels; 8 of 64 entries is the boundary
    numerators = [0] * 64
    for mask in random.Random(nonzero).sample(range(64), nonzero):
        numerators[mask] = mask - 100
    table = LVector.from_numerators(6, numerators)
    assert table.to_dict() == {
        "n": 6,
        "entries": {subset_label(m): str(v) for m, v in table.nonzero()},
    }
    flags = FlagVector(6, numerators)
    assert flags.to_dict() == {subset_label(m): str(v) for m, v in flags.items()}


_numerators = st.one_of(
    st.integers(),
    st.integers(-(2**400), 2**400),
    st.tuples(st.integers(-1000, 1000), st.integers(0, 200)).map(lambda t: t[0] << t[1]),
)


@given(_numerators, st.integers(0, 70))
def test_dyadic_strings_are_fraction_strings(numerator, n):
    assert flags_mod._dyadic_str(numerator, n) == str(Fraction(numerator, 2**n))
