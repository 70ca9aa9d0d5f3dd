"""Acceptance suite: thirteen numbered criteria, one test per criterion.

Every comparison is exact (integer, rational, or polynomial equality); no
numerical tolerance appears anywhere.  Each test ends by printing a single
"criterion N: PASS" line, so a verbose or captured run shows one line per
criterion.  Runtime bounds are asserted where the criterion carries one.
"""

import random
import time
from fractions import Fraction

import pytest

from cdposets import (
    CdPolynomial,
    NotCdExpressibleError,
    cd_index,
    cd_words,
    chain,
    classify_word,
    cli,
    count_part1_words,
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
    limit_cd_coefficient,
    limit_l_vector,
    negative_witness,
)
from cdposets.flags import FlagVector
from cdposets.subsets import as_mask


def suite_rows(name, count):
    """The rows of ``cdposets verify <name>``, after asserting that there
    are ``count`` of them and that every one is ok."""
    rows = cli._SUITES[name]()
    assert len(rows) == count, name
    failed = [row for row in rows if not row["ok"]]
    assert not failed, failed
    return rows


def coefficients(rows):
    """The computed coefficients of a glued-family suite, in copies order."""
    return [int(row["actual"]) for row in rows if " coefficient of " in row["check"]]


def monomial(word, n=None):
    return CdPolynomial(len(word) if n is None else n, {word: 1})


def test_criterion_01_double_of_chain_is_power_of_c():
    start = time.perf_counter()
    for r in range(2, 8):
        poly = cd_index(horizontal_double(chain(r)))
        assert poly == monomial("c" * (r - 1)), r
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 1: PASS -- double(chain(r)) has cd-index c^(r-1) "
          f"for r=2..7 in {elapsed:.2f}s")


def test_criterion_02_replicated_chain_closed_form():
    start = time.perf_counter()
    suite_rows("lemma1", 6)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"criterion 2: PASS -- dp(n,[[1,n]],N) matches "
          f"(N+1)c^n - N(cc-2d)^(n/2) for n in (4,6), N in (1,2,3) in {elapsed:.2f}s")


def test_criterion_03_rank7_glued_family():
    start = time.perf_counter()
    assert coefficients(suite_rows("lemma2", 4)) == [0, -48]
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"criterion 3: PASS -- lemma2_poset(7,N) Eulerian with "
          f"[dcccd] = 0, -48 for N=1,2 in {elapsed:.2f}s")


def test_criterion_04_rank7_shared_boundary_family():
    start = time.perf_counter()
    assert coefficients(suite_rows("lemma3", 6)) == [0, -2, -8]
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"criterion 4: PASS -- lemma3_poset(N) Eulerian with "
          f"[ccdcc] = 0, -2, -8 for N=1,2,3 in {elapsed:.2f}s")


def test_criterion_05_limit_tables():
    assert limit_l_vector(4, [(1, 4)]) == {
        as_mask(()): 1,
        as_mask((1, 2, 3, 4)): -1,
    }

    first = limit_l_vector(6, [(1, 2), (2, 6)])
    second = limit_l_vector(6, [(1, 5), (5, 6)])

    def halved(ranks):
        m = as_mask(ranks)
        return Fraction(first.get(m, 0) + second.get(m, 0), 2)

    assert halved((3, 4)) == 0
    assert halved((1, 2, 3, 4)) == 0
    assert halved((3, 4, 5, 6)) == 0
    assert halved((1, 2, 3, 4, 5, 6)) == 1

    for n in range(1, 7):
        for word in cd_words(n):
            r = word.count("d")
            assert limit_cd_coefficient(word, d_intervals(word)) == 2**r, word
    print("criterion 5: PASS -- limit table for [[1,4]], the halved "
          "two-system sum, and 2^r coefficients for degree <= 6")


def test_criterion_06_interval_inequality(corpus):
    instances = 0
    for name, poset in corpus:
        flags = flag_vector(poset)
        table = l_vector(flags)
        n = flags.n
        for t_mask, v_mask in inequality_pairs(n):
            instances += 1
            f_val = inequality_f_form(flags, t_mask, v_mask)
            l_val = inequality_l_form(table, t_mask, v_mask)
            assert f_val >= 0, (name, t_mask, v_mask)
            assert l_val >= 0, (name, t_mask, v_mask)
            # sign equivalence holds regardless of any constant
            assert (f_val == 0) == (l_val == 0), (name, t_mask, v_mask)
            # the constant that does hold on every instance
            s_size = n - bin(v_mask).count("1")
            t_size = bin(t_mask).count("1")
            assert f_val == 2 ** (s_size + t_size) * l_val, (name, t_mask, v_mask)
    assert instances == 39961
    print(f"criterion 6: PASS -- nonnegativity and f-form = 2^(|S|+|T|) * L-form "
          f"on {instances} instances")


def test_criterion_07_classifier_counts():
    suite_rows("note-count", 28)
    for n in range(5, 11):
        tags = [classify_word(w).tag for w in cd_words(n)]
        part1 = tags.count("Part1a") + tags.count("Part1b")
        assert part1 == count_part1_words(n), n
    print("criterion 7: PASS -- classes partition cd_words(n) for n <= 10, "
          "Part1 count formula for 5 <= n <= 10, Fibonacci word counts for n <= 12")


def test_criterion_08_leading_coefficient_is_one(corpus):
    for name, poset in corpus:
        poly = cd_index(poset)
        assert poly.coefficient("c" * poly.n) == 1, name
    print(f"criterion 8: PASS -- [c^n] = 1 on all {len(corpus)} corpus posets")


def test_criterion_09_join_multiplicativity():
    suite_rows("join-mult", 20)
    print("criterion 9: PASS -- cd-index multiplicative and Eulerian "
          "on 10 join pairs")


def test_criterion_10_negative_witnesses():
    for copies in (1, 2, 3):
        assert negative_witness("cdd", copies).coefficient == -4 * copies, copies

    for copies in (1, 2):
        report = negative_witness("dcccd", copies)
        assert report.coefficient == 4 * (copies**2 - copies**4), copies
    for copies in (1, 2, 3):
        report = negative_witness("ccdcc", copies)
        assert report.coefficient == -2 * (copies - 1) ** 2, copies

    part3 = [
        w
        for n in range(1, 8)
        for w in cd_words(n)
        if classify_word(w).tag == "Part3"
    ]
    for word in part3:
        values = [negative_witness(word, copies).coefficient for copies in (2, 3, 4)]
        assert values[0] > values[1] > values[2], (word, values)
    print(f"criterion 10: PASS -- [cdd] = -4N, glued-family witnesses match, "
          f"and {len(part3)} Part3 words of degree <= 7 strictly decrease "
          f"over N = 2, 3, 4")


def test_criterion_11_boolean_positivity():
    suite_rows("boolean-positivity", 6)
    print("criterion 11: PASS -- cd-index of boolean(k) strictly positive "
          "for k <= 6")


def test_criterion_12_duality():
    suite_rows("duality", 176)
    print("criterion 12: PASS -- dual cd-index is the reversed word polynomial "
          "and dual flags reverse rank sets on all 176 corpus posets")


def test_criterion_13_round_trips(corpus):
    rng = random.Random(20260819)
    for n in (3, 4, 5):
        for _ in range(30):
            values = [rng.randint(-9, 9) for _ in range(1 << n)]
            table = FlagVector(n, values)
            assert flag_from_h(flag_h(table)) == table
            assert flag_h(flag_from_h(table)) == table

    for name, poset in corpus:
        flags = flag_vector(poset)
        assert expand_cd_to_ab(cd_index(poset)) == flag_h(flags), name

    with pytest.raises(NotCdExpressibleError):
        cd_index(chain(4))
    print(f"criterion 13: PASS -- f/h inversion on 90 random tables, ab-index "
          f"agreement on all {len(corpus)} corpus posets, chain rejected as "
          f"not cd-expressible")
