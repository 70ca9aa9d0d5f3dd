"""Limit tables, the interval inequality, word classification with
certificates, and the negative-coefficient witnesses."""

import math
import random
import signal
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cdposets.flags as flags_mod
from cdposets import (
    BudgetError,
    boolean,
    cd_index,
    cd_support,
    cd_words,
    chain,
    classify_word,
    count_part1_words,
    d_intervals,
    dp_poset,
    even_interval_systems,
    evenly_contains,
    FlagVector,
    flag_vector,
    inequality_f_form,
    inequality_l_form,
    inequality_pairs,
    is_even_set,
    LVector,
    l_vector,
    limit_cd_coefficient,
    limit_l_vector,
    negative_witness,
    nonneg_certificate,
)
from cdposets import analysis, cli
from cdposets.exprs import build_poset, parse_expression
from cdposets.subsets import full_mask, maximal_runs, ranks_from_mask

import oracles


# -- limit tables ---------------------------------------------------------


def to_sets(table):
    return {frozenset(ranks_from_mask(m)): v for m, v in table.items()}


@pytest.mark.parametrize(
    "n,intervals",
    [
        (4, [(1, 4)]),
        (4, [(1, 2), (3, 4)]),
        (6, [(1, 2), (2, 6)]),
        (6, [(1, 5), (5, 6)]),
        (6, [(1, 4), (3, 6)]),
        (5, [(2, 5), (1, 2)]),
    ],
)
def test_limit_l_matches_subfamily_oracle(n, intervals):
    # entries that cancel to zero included
    assert to_sets(limit_l_vector(n, intervals)) == oracles.limit_l(n, intervals)


def _random_system(rng, n):
    intervals = []
    for _ in range(rng.randint(0, 8)):
        if intervals and rng.random() < 0.25:
            # a chosen interval again, or one nested in it
            a, b = rng.choice(intervals)
            if rng.random() < 0.5:
                a = rng.randint(a, b)
                b = rng.randint(a, b)
        else:
            a = rng.randint(1, n)
            b = rng.randint(a, n)
        intervals.append((a, b))
    return intervals


def _subfamily_table(intervals):
    """The table straight from its definition, in masks: each subfamily
    adds (-1)^size at its union, the subfamilies counted up in binary, so
    the keys come in the order the unions are first met."""
    unions = [0]  # the union of subfamily `pick` at index pick
    for a, b in intervals:
        unions += [u | (1 << b) - (1 << (a - 1)) for u in unions]
    table = {}
    for pick, union in enumerate(unions):
        table[union] = table.get(union, 0) + (-1) ** pick.bit_count()
    return table


def _assert_same_table(got, want, system):
    # entries that cancel to zero included, keys in the same order
    assert got == want, system
    assert list(got) == list(want), system


def test_limit_l_sweep_matches_subfamily_oracle():
    rng = random.Random(17)
    for trial in range(300):
        n = trial % 12 + 1
        intervals = _random_system(rng, n)
        got = limit_l_vector(n, intervals)
        assert to_sets(got) == oracles.limit_l(n, intervals), (n, intervals)
        _assert_same_table(got, _subfamily_table(intervals), (n, intervals))


def test_limit_l_sweep_of_wide_and_long_systems():
    # systems of up to 20 intervals and ranks up to 2^22; each keeps
    # top * 2^k within 2^22, so its 2^k subfamily unions stay small
    rng = random.Random(18)
    for trial in range(60):
        k = rng.choice([0, 1, 2, 4, 8, 12, 16]) if trial else 20
        n = rng.randint(1, 1 << 22)
        top = rng.randint(1, min(n, (1 << 22) >> k))
        intervals = []
        for _ in range(k):
            if intervals and rng.random() < 0.25:
                intervals.append(rng.choice(intervals))
            else:
                a = rng.randint(1, top)
                intervals.append((a, rng.randint(a, top)))
        _assert_same_table(
            limit_l_vector(n, intervals), _subfamily_table(intervals), (n, intervals)
        )


def _raise_timeout(signum, frame):
    raise TimeoutError("no answer within 0.5 s")


def test_limit_l_of_repeated_intervals_follows_the_unions():
    # 2^20 subfamilies but two unions: the steps visit the unions only
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.setitimer(signal.ITIMER_REAL, 0.5)
    try:
        assert limit_l_vector(1, [(1, 1)] * 20) == {0: 1, 1: -1}
        # and no bound on the intervals or their ends follows 2^k
        assert limit_l_vector(4, [(1, 2)] * 21) == {0: 1, 0b11: -1}
        top = (1 << 20) + 1
        assert limit_l_vector(top, [(top, top)] * 10) == {0: 1, 1 << (top - 1): -1}
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_limit_l_single_full_interval():
    table = to_sets(limit_l_vector(4, [(1, 4)]))
    assert table == {frozenset(): 1, frozenset({1, 2, 3, 4}): -1}


def test_limit_l_overlapping_pair():
    # the two-element subfamily contributes its union [1,3] with sign +1
    table = to_sets(limit_l_vector(3, [(1, 2), (2, 3)]))
    assert table[frozenset({1, 2, 3})] == 1
    assert table[frozenset()] == 1
    assert table[frozenset({1, 2})] == -1


def test_limit_l_rejects_bad_interval():
    with pytest.raises(ValueError):
        limit_l_vector(3, [(2, 4)])


def test_limit_l_visits_are_bounded(monkeypatch):
    from cdposets import analysis

    # 10^6 equal intervals visit two unions a step: refused one past 2^20
    with pytest.raises(BudgetError) as info:
        limit_l_vector(1, [(1, 1)] * 10**6)
    assert str(info.value) == "limit_l_vector would visit 1048577 unions, limit is 2^20"
    # both sides of the limit, lowered: the tables have 2, 2, ..., 3, 3
    # entries before the steps, 16 visits in all, then 19
    monkeypatch.setattr(analysis, "_LIMIT_VISITS", 1 << 4)
    system = [(1, 1)] * 6 + [(1, 2)] * 2
    assert limit_l_vector(2, system) == {0: 1, 1: -1, 0b11: 0}
    with pytest.raises(BudgetError) as info:
        limit_l_vector(2, system + [(1, 1)])
    assert str(info.value) == "limit_l_vector would visit 19 unions, limit is 2^4"


def test_limit_table_bits_are_bounded_before_the_masks(monkeypatch):
    from cdposets import analysis

    top = (1 << 30) + 1
    with pytest.raises(BudgetError) as info:
        limit_l_vector(top, [(top, top)])
    assert str(info.value) == "limit_l_vector would build 1073741825 mask bits, limit is 2^30"
    # both sides of the limit, lowered: each step counts the size of the
    # table times the highest end so far, 1 * 1 + 2 * 511 bits, then 1025
    monkeypatch.setattr(analysis, "_LIMIT_TABLE_BITS", 1 << 10)
    assert limit_l_vector(1024, [(1024, 1024)]) == {0: 1, 1 << 1023: -1}
    assert limit_l_vector(1024, [(1, 1), (511, 511)]) == {
        0: 1, 1: -1, 1 << 510: -1, 1 << 510 | 1: 1
    }
    for system in ([(1025, 1025)], [(1, 1), (512, 512)]):
        with pytest.raises(BudgetError) as info:
            limit_l_vector(1025, system)
        assert str(info.value) == "limit_l_vector would build 1025 mask bits, limit is 2^10"
    # the refused step's mask, 1.25 MB, is never built
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError):
            limit_l_vector(10**7, [(1, 10**7)])
        assert tracemalloc.get_traced_memory()[1] < 10**5
    finally:
        tracemalloc.stop()
    # the intervals are all checked before the first step
    with pytest.raises(ValueError, match=r"^interval \[1, 5\] not within \[1, 4\]$"):
        limit_l_vector(4, [(1, 4)] * 10**6 + [(1, 5)])


def test_halved_two_system_sum():
    t1 = to_sets(limit_l_vector(6, [(1, 2), (2, 6)]))
    t2 = to_sets(limit_l_vector(6, [(1, 5), (5, 6)]))

    def halved(ranks):
        s = frozenset(ranks)
        return Fraction(t1.get(s, 0) + t2.get(s, 0), 2)

    assert halved({3, 4}) == 0
    assert halved({1, 2, 3, 4}) == 0
    assert halved({3, 4, 5, 6}) == 0
    assert halved({1, 2, 3, 4, 5, 6}) == 1


def test_finite_families_approach_the_limit_table():
    # L values of the replicated-chain family, scaled by copies^k, settle
    # on the limit table: deviations never grow with the copies parameter,
    # and strictly shrink from 1 to 4 unless already exact at 1
    for n in range(2, 7):
        for sys in even_interval_systems(n):
            if len(sys) > 2:
                continue
            k = len(sys)
            tables = {
                c: l_vector(flag_vector(dp_poset(n, sys, c))) for c in (1, 2, 3, 4)
            }
            limit = limit_l_vector(n, sys)
            for q, lim in limit.items():
                if lim == 0:
                    continue
                dev = [
                    abs(tables[c].values[q] / Fraction(c) ** k - lim)
                    for c in (1, 2, 3, 4)
                ]
                assert all(a >= b for a, b in zip(dev, dev[1:])), (n, sys, q)
                if any(dev):
                    assert dev[3] < dev[0], (n, sys, q)


def test_limit_cd_coefficient_is_power_of_two_on_d_pairs():
    for n in range(1, 7):
        for word in cd_words(n):
            r = word.count("d")
            assert limit_cd_coefficient(word, d_intervals(word)) == 2**r, word


def test_limit_cd_coefficient_trivial_word():
    assert limit_cd_coefficient("ccc", []) == 1


# -- interval inequality ----------------------------------------------------


def test_inequality_forms_convert_only_what_is_not_a_mask(monkeypatch):
    import cdposets.analysis as analysis

    f = flag_vector(boolean(4))
    table = l_vector(f)
    converted = []
    as_mask = analysis.as_mask

    def spy(ranks):
        converted.append(ranks)
        return as_mask(ranks)

    monkeypatch.setattr(analysis, "as_mask", spy)
    for form, data in ((inequality_f_form, f), (inequality_l_form, table)):
        converted.clear()
        want = form(data, 0b10, 0b11)
        assert converted == []
        # rank lists, and bools (masks of one bit), go through as_mask
        assert form(data, [2], (1, 2)) == want
        assert form(data, True, 0b11) == form(data, 1, 0b11)
        assert converted == [[2], (1, 2), True]
        for t_set, v_set in ((-1, 0b11), (0b10, -3)):
            with pytest.raises(ValueError) as info:
                form(data, t_set, v_set)
            assert str(info.value) == "bitmask must be nonnegative"


def test_inequality_preconditions():
    f = flag_vector(boolean(4))
    table = l_vector(f)
    cases = [
        ({1, 2}, {1, 2, 3}, "maximal run [1, 3] of V meets T more than once"),
        ({1}, {2, 3}, "T = [1] not within V = [2,3]"),
        ({4}, {4, 5}, "V = [4,5] not within [1, 3]"),
    ]
    for t_set, v_set, message in cases:
        for form, data in ((inequality_f_form, f), (inequality_l_form, table)):
            with pytest.raises(ValueError) as info:
                form(data, t_set, v_set)
            assert str(info.value) == message


def test_inequality_f_form_matches_oracle(small_corpus):
    for name, p in small_corpus[:15]:
        f = flag_vector(p)
        table = {
            frozenset(ranks_from_mask(m)): v for m, v in f.items()
        }
        for t_mask, v_mask in inequality_pairs(f.n):
            got = inequality_f_form(f, t_mask, v_mask)
            want = oracles.f_form(
                table, f.n, ranks_from_mask(t_mask), ranks_from_mask(v_mask)
            )
            assert got == want, (name, ranks_from_mask(t_mask), ranks_from_mask(v_mask))


def test_inequality_nonnegative_on_eulerian_corpus(corpus):
    for name, p in corpus:
        f = flag_vector(p)
        table = l_vector(f)
        for t_mask, v_mask in inequality_pairs(f.n):
            f_val = inequality_f_form(f, t_mask, v_mask)
            l_val = inequality_l_form(table, t_mask, v_mask)
            assert type(f_val) is int and type(l_val) is Fraction, name
            assert f_val >= 0, name
            assert l_val >= 0, name


def test_f_form_is_l_form_scaled_by_complement_and_t(corpus):
    # the two sides differ by the factor 2^(|S| + |T|), S = [1,n] - V
    for name, p in corpus[:60]:
        f = flag_vector(p)
        table = l_vector(f)
        n = f.n
        for t_mask, v_mask in inequality_pairs(n):
            s_size = n - bin(v_mask).count("1")
            t_size = bin(t_mask).count("1")
            assert inequality_f_form(f, t_mask, v_mask) == 2 ** (
                s_size + t_size
            ) * inequality_l_form(table, t_mask, v_mask), name


def test_l_form_is_scaled_f_form_on_random_tables():
    # the identity holds for every table, not only Eulerian flag vectors;
    # the check-inequality command derives its L form from it
    rng = random.Random(61)
    for trial in range(120):
        n = trial % 7
        f = FlagVector(n, [rng.randint(-50, 50) for _ in range(1 << n)])
        table = l_vector(f)
        for t_mask, v_mask in inequality_pairs(n):
            f_val = inequality_f_form(f, t_mask, v_mask)
            l_val = inequality_l_form(table, t_mask, v_mask)
            scale = n - v_mask.bit_count() + t_mask.bit_count()
            assert f_val == 2**scale * l_val, (f.values, t_mask, v_mask)
            row = cli._inequality_row(n, t_mask, v_mask, f_val)
            assert row["l_form"] == str(l_val), (f.values, t_mask, v_mask)


def test_inequality_can_fail_off_eulerian_posets():
    # the forms stay defined for the chain, and the f side goes negative
    f = flag_vector(chain(3))
    values = [
        inequality_f_form(f, t, v) for t, v in inequality_pairs(f.n)
    ]
    assert min(values) < 0


def test_inequality_pairs_match_brute_force():
    from itertools import combinations

    def brute(n):
        pairs = set()
        ranks = range(1, n + 1)
        for vsize in range(n + 1):
            for v in combinations(ranks, vsize):
                vset = set(v)
                runs = []
                for s in sorted(vset):
                    if runs and s == runs[-1][-1] + 1:
                        runs[-1].append(s)
                    else:
                        runs.append([s])
                for tsize in range(len(runs) + 1):
                    for t in combinations(sorted(vset), tsize):
                        if all(len(set(run) & set(t)) <= 1 for run in runs):
                            pairs.add((frozenset(t), frozenset(v)))
        return pairs

    for n in range(0, 6):
        got = {
            (frozenset(ranks_from_mask(t)), frozenset(ranks_from_mask(v)))
            for t, v in inequality_pairs(n)
        }
        assert got == brute(n)


@pytest.mark.parametrize("n", range(13))
def test_inequality_pairs_match_stack_oracle(n):
    # same pairs in the same order as the depth-first enumerator
    assert list(inequality_pairs(n)) == list(oracles.inequality_pairs_stack(n))


@pytest.mark.parametrize("n", [-1, 63])
def test_inequality_pairs_rejects_bad_n(n):
    with pytest.raises(ValueError, match=r"^n must be in \[0, 62\]$"):
        list(inequality_pairs(n))


def test_inequality_pairs_replay_the_enumeration():
    # up to 10 ranks the pairs come from one cached tuple of the enumeration
    for n in range(analysis._SWEEP_RANKS + 1):
        assert list(inequality_pairs(n)) == list(analysis._enumerated_pairs(n))
        assert analysis._pair_tuple(n) is analysis._pair_tuple(n)
    # still a generator: a bad n raises when the first pair is read, and a
    # float that equals a cached n is not read from the cache
    for n, error in ((-1, ValueError), (63, ValueError), (3.0, TypeError)):
        pairs = inequality_pairs(n)
        with pytest.raises(error):
            next(pairs)


def _outcome(func, *args):
    try:
        func(*args)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("n", range(9))
def test_inequality_validity_matches_run_scan(n):
    # every T and V below 2^(n+1), so V also leaves [1, n]; both forms
    # accept exactly the pairs the run scan accepts, with its messages
    f = FlagVector(n, [1] * (1 << n))
    table = l_vector(f)
    for v_mask in range(1 << (n + 1)):
        for t_mask in range(1 << (n + 1)):
            want = _outcome(oracles.check_inequality_pair_scan, n, t_mask, v_mask)
            assert _outcome(inequality_f_form, f, t_mask, v_mask) == want
            assert _outcome(inequality_l_form, table, t_mask, v_mask) == want


def test_valid_pairs_skip_the_run_scan(monkeypatch):
    # the carry test alone accepts a valid pair; only invalid pairs scan
    # the runs of V to word their message
    import cdposets.analysis as analysis

    def no_scan(mask):
        raise AssertionError(f"run scan reached for V = {mask}")

    # inequality_pairs finds the runs of each V by bit arithmetic, so it
    # runs with the scan patched away too
    monkeypatch.setattr(analysis, "maximal_runs", no_scan)
    for n in range(11):
        f = FlagVector(n, [1] * (1 << n))
        table = l_vector(f)
        for t_mask, v_mask in inequality_pairs(n):
            inequality_f_form(f, t_mask, v_mask)
            inequality_l_form(table, t_mask, v_mask)


def _assert_forms_match_oracles(f, table, pairs):
    """Both forms of each pair equal the direct sums of tests/oracles.py,
    as an int and a Fraction."""
    f_sets = {frozenset(ranks_from_mask(m)): v for m, v in f.items()}
    l_sets = {frozenset(ranks_from_mask(m)): v for m, v in table.items()}
    for t_mask, v_mask in pairs:
        t_ranks, v_ranks = ranks_from_mask(t_mask), ranks_from_mask(v_mask)
        f_val = inequality_f_form(f, t_mask, v_mask)
        l_val = inequality_l_form(table, t_mask, v_mask)
        assert type(f_val) is int and type(l_val) is Fraction
        assert f_val == oracles.f_form(f_sets, f.n, t_ranks, v_ranks), (t_mask, v_mask)
        assert l_val == oracles.l_form(l_sets, table.n, t_ranks, v_ranks), (t_mask, v_mask)


@st.composite
def _tables_and_pairs(draw):
    """A random flag table and a random L table of n <= 10 ranks, with
    entries small, near 2^62 / 3^n (so the f sweep may turn to Python
    ints partway) or past 2^63, and some of their (T, V) pairs."""
    n = draw(st.integers(0, 10))
    bound = draw(st.sampled_from([50, 2**62 // 3**n, 2**62 // 2**n, 2**70]))
    entries = st.lists(st.integers(-bound, bound), min_size=1 << n, max_size=1 << n)
    f = FlagVector(n, draw(entries))
    table = LVector.from_numerators(n, draw(entries))
    pairs = list(inequality_pairs(n))
    picks = draw(st.lists(st.integers(0, len(pairs) - 1), max_size=40))
    return f, table, [pairs[0], pairs[-1]] + [pairs[k] for k in picks]


@settings(max_examples=150, deadline=None)
@given(_tables_and_pairs())
@example((FlagVector(0, [-7]), LVector.from_numerators(0, [5]), [(0, 0)]))
@example(
    (FlagVector(1, [2, -9]), LVector.from_numerators(1, [4, 2**70]), list(inequality_pairs(1)))
)
def test_forms_read_through_the_sweep_match_the_oracles(tables_and_pairs):
    f, table, pairs = tables_and_pairs
    _assert_forms_match_oracles(f, table, pairs)
    # the sweeps are cached as tuples on the tables, which stay immutable
    # and keep their arrays as they were
    for held in (f, table):
        forms = held._inequality_forms
        assert type(forms) is tuple and len(forms) == 3**held.n
        assert held._inequality_forms is forms
        assert not held.array.flags.writeable
        with pytest.raises(AttributeError):
            held._inequality_forms = ()


def _sweep_dtypes(monkeypatch, name):
    """The dtype each stage of the named ternary stage runs on, recorded
    as it runs."""
    stage, dtypes = getattr(flags_mod, name), []

    def recording(x0, x1, out):
        dtypes.append(x0.dtype)
        stage(x0, x1, out)

    monkeypatch.setattr(flags_mod, name, recording)
    return dtypes


@pytest.mark.parametrize(
    "name,entries,first",
    [
        # m (-1)^|S| grows by exactly 3 a stage in the f sweep: x1 - 2 x0 =
        # -3 x0, and 3^4 * 2^58 is the first to reach 2^63
        ("_f_form_stage", [2**58 * (-1) ** bin(s).count("1") for s in range(256)], 3),
        # a constant m grows by exactly 2 a stage in the L sweep: x0 + x1
        ("_l_form_stage", [2**58] * 256, 4),
    ],
    ids=["f", "l"],
)
def test_sweeps_turn_to_python_ints_at_the_first_stage_that_could_overflow(
    monkeypatch, name, entries, first
):
    f = FlagVector(8, entries)
    table = LVector.from_numerators(8, entries)
    dtypes = _sweep_dtypes(monkeypatch, name)
    held = f if name == "_f_form_stage" else table
    forms = held._inequality_forms
    assert dtypes == [np.int64] * first + [object] * (8 - first)
    assert max(map(abs, forms)) >= 2**63
    _assert_forms_match_oracles(f, table, list(inequality_pairs(8))[::7])


def test_forms_past_the_sweep_limit_sum_their_terms():
    # 3^11 entries pass the 2^16 limit of a per-pair read: the forms take
    # the loop path, build no sweep, and agree with the sweep built here
    rng = random.Random(71)
    f = FlagVector(11, [rng.randint(-(2**40), 2**40) for _ in range(1 << 11)])
    table = LVector.from_numerators(11, [rng.randint(-(2**40), 2**40) for _ in range(1 << 11)])
    f_sweep, l_sweep = f._inequality_sweep().tolist(), table._inequality_sweep().tolist()
    masks = [sum(3 ** (s - 1) for s in ranks_from_mask(m)) for m in range(1 << 11)]
    for t_mask, v_mask in inequality_pairs(11):
        at = masks[v_mask] + masks[t_mask]
        assert inequality_f_form(f, t_mask, v_mask) == f_sweep[at]
        assert inequality_l_form(table, t_mask, v_mask) == Fraction(l_sweep[at], 2**11)
    assert "_inequality_forms" not in f.__dict__
    assert "_inequality_forms" not in table.__dict__
    _assert_forms_match_oracles(f, table, list(inequality_pairs(11))[::997])


def _violations_pair_by_pair(f):
    pairs = list(inequality_pairs(f.n))
    rows = [(t, v, x) for t, v in pairs if (x := inequality_f_form(f, t, v)) < 0]
    return len(pairs), rows


def _random_flag_table():
    rng = random.Random(5)
    return FlagVector(9, [rng.randint(-(2**70), 2**70) for _ in range(1 << 9)])


@pytest.mark.parametrize(
    "make,violated",
    [
        (lambda: flag_vector(chain(9)), True),
        (lambda: flag_vector(build_poset(parse_expression("dni(boolean(4),1,2,2)"))), False),
        (_random_flag_table, True),
        (lambda: FlagVector(0, [-1]), True),
        (lambda: FlagVector(1, [3, -4]), True),
    ],
    ids=["chain9", "dni", "random", "n0", "n1"],
)
def test_all_pairs_sweep_matches_the_pair_by_pair_loop(monkeypatch, make, violated):
    import cdposets.analysis as analysis

    f = make()
    pairs, rows = analysis._inequality_violations(f)
    assert all(type(x) is int for row in rows for x in row)
    assert bool(rows) == violated
    # against the forms summed pair by pair from their terms, as tables
    # past 10 ranks do, and the loop that tables past 14 ranks take
    monkeypatch.setattr(analysis, "_SWEEP_RANKS", -1)
    assert (pairs, rows) == _violations_pair_by_pair(f)
    monkeypatch.setattr(analysis, "_ALL_SWEEP_RANKS", -1)
    assert analysis._inequality_violations(f) == (pairs, rows)


# -- classification -----------------------------------------------------------


def test_classify_against_pattern_oracle():
    for n in range(1, 11):
        for word in cd_words(n):
            assert classify_word(word).tag == oracles.classify(word), word


def test_classify_known_words():
    assert classify_word("ccc").tag == "Part2"
    assert classify_word("dcc").tag == "Part1a"
    assert classify_word("cdc").tag == "Part1a"
    assert classify_word("cdcdc").tag == "Part1b"
    assert classify_word("ccdcc").tag == "Part3"
    assert classify_word("ddc").tag == "Part3"


def test_part3_witness_positions():
    w = classify_word("ccdcc")
    assert (w.witness, w.position) == ("ccdcc", 0)
    w = classify_word("cccdcc")
    assert (w.witness, w.position) == ("ccdcc", 1)
    w = classify_word("dccdc")
    assert (w.witness, w.position) == ("dccd", 0)
    w = classify_word("cdd")
    assert (w.witness, w.position) == ("dd", 1)


def test_count_part1_formula():
    for n in range(5, 11):
        assert count_part1_words(n) == math.comb(n - 2, 2) // 3 + 4
    with pytest.raises(ValueError):
        count_part1_words(4)


def test_count_part1_matches_enumeration():
    # every cd word of degree n classified, against the closed form
    for n in range(5, 21):
        part1 = sum(classify_word(w).tag in ("Part1a", "Part1b") for w in cd_words(n))
        assert count_part1_words(n) == part1, n


@pytest.mark.parametrize("n,count", [(21, 61), (100, 1588), (10**6, 166665833338)])
def test_count_part1_past_the_word_budget(n, count):
    # 4 Part1a words, and n - 3r + 2 Part1b words for each r >= 2 with 3r <= n + 1
    assert 4 + sum(n - 3 * r + 2 for r in range(2, (n + 1) // 3 + 1)) == count
    assert count_part1_words(n) == count


def test_classes_partition_all_words():
    for n in range(1, 11):
        words = cd_words(n)
        tags = [classify_word(w).tag for w in words]
        assert len(words) == sum(
            tags.count(t) for t in ("Part1a", "Part1b", "Part2", "Part3")
        )


# -- certificates --------------------------------------------------------------


def test_certificate_serialization_shape():
    cert = nonneg_certificate("cdcdc")
    assert cert.to_dict() == {
        "word": "cdcdc",
        "class": "Part1b",
        "S": [4],
        "T": [3, 5],
        "V": [1, 2, 3, 5, 6, 7],
    }


def test_certificate_rejected_for_other_classes():
    with pytest.raises(ValueError):
        nonneg_certificate("ccc")
    with pytest.raises(ValueError):
        nonneg_certificate("ccdcc")


def test_certificate_sets_describe_even_supersets():
    # Q evenly contains supp(w) exactly when Q is even and T <= Q <= V
    for n in range(1, 9):
        for word in cd_words(n):
            cls = classify_word(word)
            if cls.tag not in ("Part1a", "Part1b"):
                continue
            cert = cls.certificate
            supp = cd_support(word)
            assert cert.v_mask == full_mask(n) & ~cert.s_mask
            for q in range(1 << n):
                direct = evenly_contains(supp, q)
                via = (
                    is_even_set(q)
                    and cert.t_mask & ~q == 0
                    and q & ~cert.v_mask == 0
                )
                assert direct == via, (word, ranks_from_mask(q))


def test_certificate_identity_on_corpus(corpus):
    # Eq-1 sum over even supersets equals the certified inequality instance
    by_n = {}
    for name, p in corpus:
        by_n.setdefault(flag_vector(p).n, []).append((name, p))
    for n, group in by_n.items():
        part1 = [
            w
            for w in cd_words(n)
            if classify_word(w).tag in ("Part1a", "Part1b")
        ]
        for name, p in group[:8]:
            table = l_vector(flag_vector(p))
            poly = cd_index(p)
            for word in part1:
                cert = nonneg_certificate(word)
                r = word.count("d")
                via = 2**r * inequality_l_form(table, cert.t_mask, cert.v_mask)
                assert via == poly.coefficient(word), (name, word)


def _random_part1_word(rng, degree):
    """c^i d c^j with min(i, j) <= 1, or c^i (dc)^(r-1) d c^j with r >= 2."""
    if rng.random() < 0.5:
        i = rng.choice([0, 1])
        j = degree - 2 - i
        return "c" * i + "d" + "c" * j if rng.random() < 0.5 else "c" * j + "d" + "c" * i
    r = rng.randint(2, (degree + 1) // 3)
    i = rng.randint(0, degree + 1 - 3 * r)
    return "c" * i + "dc" * (r - 1) + "d" + "c" * (degree + 1 - 3 * r - i)


def test_certificates_of_part1_words_past_62_ranks():
    # the certificate sets are built with shifts, so no rank cap applies
    rng = random.Random(2021)
    for degree in [rng.randint(5, 400) for _ in range(60)] + [63, 64, 400]:
        word = _random_part1_word(rng, degree)
        assert len(word) + word.count("d") == degree
        cls = classify_word(word)
        assert cls.tag in ("Part1a", "Part1b"), word
        cert = cls.certificate
        supp = cd_support(word)
        assert cert.t_mask & ~supp == 0, word
        assert cert.s_mask & supp == 0, word
        assert cert.v_mask == ((1 << degree) - 1) ^ cert.s_mask, word
        for a, b in maximal_runs(cert.v_mask):
            run = ((1 << b) - 1) ^ ((1 << (a - 1)) - 1)
            assert (run & cert.t_mask).bit_count() == 1, (word, a, b)


# -- negative witnesses ---------------------------------------------------------


def test_witness_cdd_values():
    for copies in (1, 2, 3):
        report = negative_witness("cdd", copies)
        assert report.coefficient == -4 * copies
        assert report.base == f"dp(4,[[1,4]],{copies})"
        assert report.poset.is_eulerian().eulerian


def test_witness_routing():
    assert negative_witness("ccdcc", 2).base == "lemma3(2)"
    assert negative_witness("dcccd", 2).base == "lemma2(7,2)"
    assert negative_witness("dccd", 2).base == "dp(6,[[1,6]],2)"
    assert negative_witness("ddc", 2).base == "dp(4,[[1,4]],2)"


def test_witness_matches_lemma_values():
    assert negative_witness("dcccd", 2).coefficient == 4 * (4 - 16)
    assert negative_witness("ccdcc", 3).coefficient == -2 * (3 - 1) ** 2


def test_witness_rejects_other_classes():
    with pytest.raises(ValueError):
        negative_witness("cdc", 2)
    with pytest.raises(ValueError):
        negative_witness("cccc", 2)


def test_witness_strictly_decreasing_small_degrees():
    words = [
        w for n in range(1, 7) for w in cd_words(n) if classify_word(w).tag == "Part3"
    ]
    for word in words:
        values = [negative_witness(word, copies).coefficient for copies in (2, 3, 4)]
        assert values[0] > values[1] > values[2], (word, values)


@pytest.mark.parametrize("copies", [1, 2, 3])
def test_witness_poset_carries_the_negative_coefficient(copies):
    report = negative_witness("ddcc", copies)
    assert cd_index(report.poset).coefficient("ddcc") == report.coefficient
    assert report.coefficient <= 0


def direct_witness_poset(word, copies):
    """The witness poset of ``word`` by direct construction calls: the base
    family of its witness subword, joined with boolean lattices for the
    prefix and the suffix."""
    from cdposets import cd_degree, horizontal_double, join

    report = classify_word(word)
    witness, position = report.witness, report.position
    degree = cd_degree(witness)
    if witness == "ccdcc":
        poset = horizontal_double(oracles.lemma3_glued(copies))
    elif degree % 2 == 0:
        poset = oracles.dp_poset(degree, [(1, degree)], copies)
    else:
        poset = horizontal_double(oracles.lemma2_glued(degree, copies))
    prefix = cd_degree(word[:position])
    suffix = cd_degree(word[position + len(witness):])
    if prefix:
        poset = join(boolean(prefix + 1), poset)
    if suffix:
        poset = join(poset, boolean(suffix + 1))
    return poset


@pytest.mark.parametrize(
    "word,expression",
    [
        ("cccdccc", "join(join(boolean(2),lemma3(2)),boolean(2))"),
        ("dccdc", "join(dp(6,[[1,6]],2),boolean(2))"),
        ("cdcccdd", "join(join(boolean(2),lemma2(7,2)),boolean(3))"),
        ("ccddc", "join(join(boolean(3),dp(4,[[1,4]],2)),boolean(2))"),
    ],
)
def test_witness_builds_no_poset_until_read(monkeypatch, word, expression):
    from cdposets import exprs

    def refuse(*args, **kwargs):
        raise AssertionError("built a poset")

    monkeypatch.setattr(exprs, "horizontal_double", refuse)
    monkeypatch.setattr(exprs, "join", refuse)
    report = negative_witness(word, 2)
    assert report.expression == expression
    with pytest.raises(AssertionError, match="built a poset"):
        report.poset
    monkeypatch.undo()
    # read, the poset is the direct construction and carries the coefficient
    poset = report.poset
    assert poset == direct_witness_poset(word, 2)
    assert poset.level_sizes == report.level_sizes
    assert cd_index(poset).coefficient(word) == report.coefficient < 0
    assert report.poset is poset


def test_witness_coefficient_needs_no_poset():
    # 8,000,010 elements, under the budget given; .poset would build them
    # under the same budget
    report = negative_witness("dd", 10**6, budget=10**7)
    assert report.coefficient == -4 * 10**6
    assert sum(report.level_sizes) == 8 * (10**6 + 1) + 2
    assert report.budget == 10**7


def test_witness_rejects_copies_below_one():
    for copies in (0, -1):
        with pytest.raises(ValueError, match=f"copies must be at least 1, got {copies}$"):
            negative_witness("dd", copies)
