import signal
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cdposets.subsets import (
    as_mask,
    evenly_contains,
    full_mask,
    is_even_set,
    maximal_runs,
    parse_subset,
    ranks_from_mask,
    reverse_mask,
    subset_label,
    subset_labels,
)

import oracles


def test_mask_round_trip():
    assert as_mask([1, 2, 5]) == 0b10011
    assert ranks_from_mask(0b10011) == (1, 2, 5)
    assert as_mask(()) == 0
    assert as_mask(as_mask([3])) == 0b100


def test_full_mask():
    assert full_mask(0) == 0
    assert full_mask(3) == 0b111


def test_bad_ranks_rejected():
    with pytest.raises(ValueError):
        as_mask([0])
    with pytest.raises(ValueError):
        as_mask([-2])
    with pytest.raises(ValueError):
        as_mask([100])


def test_reverse_mask_refuses_ranks_past_n():
    with pytest.raises(ValueError, match="^rank 3 exceeds n = 2$"):
        reverse_mask(0b100, 2)
    # the lowest rank past n is named, whatever lies below it
    with pytest.raises(ValueError, match="^rank 2 exceeds n = 1$"):
        reverse_mask(0b1011, 1)
    with pytest.raises(ValueError, match="^rank 1 exceeds n = 0$"):
        reverse_mask(1, 0)
    assert reverse_mask(0, 0) == 0


def test_reverse_mask_is_linear_in_the_width():
    # one OR per rank into a growing integer took minutes at this width
    width = 1_000_000
    start = time.perf_counter()
    assert reverse_mask((1 << width) - 1, width) == (1 << width) - 1
    assert reverse_mask(1, width) == 1 << (width - 1)
    assert reverse_mask(0b1101 << (width - 8), width) == 0b1011 << 4
    with pytest.raises(ValueError, match=f"^rank {width} exceeds n = {width - 1}$"):
        reverse_mask((1 << width) - 1, width - 1)
    assert time.perf_counter() - start < 2


def test_maximal_runs():
    assert maximal_runs(0) == []
    assert maximal_runs(as_mask([1, 2, 4, 5, 6, 9])) == [(1, 2), (4, 6), (9, 9)]


def _raise_timeout(signum, frame):
    raise TimeoutError("no answer within 2 s")


@pytest.mark.parametrize(
    "func,args",
    [
        (ranks_from_mask, (-1,)),
        (maximal_runs, (-1,)),
        (subset_label, (-3,)),
        (reverse_mask, (-1, 3)),
        (is_even_set, (-1,)),
    ],
    ids=["ranks_from_mask", "maximal_runs", "subset_label", "reverse_mask", "is_even_set"],
)
def test_negative_masks_are_refused(func, args):
    # a negative mask shifted right stays negative, so a bit loop on one
    # never ends; the alarm turns such a hang into a failure
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.alarm(2)
    try:
        with pytest.raises(ValueError, match="^bitmask must be nonnegative$"):
            func(*args)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_even_sets():
    assert is_even_set(0)
    assert is_even_set(as_mask([1, 2]))
    assert not is_even_set(as_mask([2]))
    assert is_even_set(as_mask([1, 2, 5, 6]))
    assert not is_even_set(as_mask([1, 2, 3]))


@given(st.sets(st.integers(1, 12)))
def test_even_sets_match_run_oracle(ranks):
    assert is_even_set(as_mask(ranks)) == oracles.is_even_runs(ranks)


@given(st.sets(st.integers(1, 10)), st.sets(st.integers(1, 10)))
def test_evenly_contains_definition(inner, outer):
    im, om = as_mask(inner), as_mask(outer)
    expected = (
        inner <= outer
        and oracles.is_even_runs(inner)
        and oracles.is_even_runs(outer)
        and oracles.is_even_runs(outer - inner)
    )
    assert evenly_contains(im, om) == expected


@given(st.sets(st.integers(1, 9)), st.integers(9, 12))
def test_reverse_mask_involution(ranks, n):
    mask = as_mask(ranks)
    assert reverse_mask(reverse_mask(mask, n), n) == mask
    assert ranks_from_mask(reverse_mask(mask, n)) == tuple(
        sorted(n + 1 - s for s in ranks)
    )


def _mask_from_runs(lengths):
    # alternate runs of present and absent ranks, from rank 1 up
    bits = "".join(("1", "0")[k % 2] * length for k, length in enumerate(lengths))
    return int(bits[::-1] or "0", 2)


# wide masks: random bits, strict alternation, and runs of random lengths
wide_masks = st.one_of(
    st.integers(0, (1 << 4000) - 1),
    st.integers(0, 2000).map(lambda k: int("10" * k or "0", 2)),
    st.lists(st.integers(1, 30), max_size=300).map(_mask_from_runs),
)


@given(wide_masks, st.integers(-3, 3))
def test_mask_readers_match_bitwise_oracle(mask, slack):
    ranks = oracles.ranks_bitwise(mask)
    assert ranks_from_mask(mask) == tuple(ranks)
    assert maximal_runs(mask) == oracles.runs_bitwise(mask)
    assert is_even_set(mask) == oracles.is_even_runs(ranks)
    assert subset_label(mask) == "[" + ",".join(map(str, ranks)) + "]"
    n = max(mask.bit_length() + slack, 0)
    if mask.bit_length() <= n:
        assert reverse_mask(mask, n) == oracles.reverse_bitwise(mask, n)
    else:
        first = next(s for s in ranks if s > n)
        with pytest.raises(ValueError, match=f"^rank {first} exceeds n = {n}$"):
            reverse_mask(mask, n)


def test_labels():
    assert subset_label(0) == "[]"
    assert subset_label(as_mask([2, 4])) == "[2,4]"
    assert parse_subset("[2,4]") == as_mask([2, 4])
    assert parse_subset("2,4") == as_mask([2, 4])
    assert parse_subset("[]") == 0
    with pytest.raises(ValueError, match=r"^bad subset '\[1,'"):
        parse_subset("[1,")
    # the comma form words its failures like the bracket form
    for text in ("x", "1,y", "1,,2"):
        with pytest.raises(ValueError) as info:
            parse_subset(text)
        assert str(info.value).startswith(f"bad subset {text!r}: ")
    with pytest.raises(ValueError) as info:
        parse_subset(" 1,x ")
    assert str(info.value) == (
        "bad subset '1,x': invalid literal for int() with base 10: 'x'"
    )


def test_parse_subset_rejects_json_booleans():
    # JSON true and false load as bool, a subclass of int
    for text in ("[true]", "[1,false]"):
        with pytest.raises(ValueError) as info:
            parse_subset(text)
        assert str(info.value) == f"bad subset {text!r}: expected a list of ints"


def test_subset_label_matches_json_form():
    import json

    masks = [*range(1 << 12), (1 << 62) - 1, 1 << 61, 0x2AAAAAAAAAAAAAAA, 0x3000000000000001]
    for mask in masks:
        want = json.dumps(list(ranks_from_mask(mask)), separators=(",", ":"))
        assert subset_label(mask) == want
        assert parse_subset(want) == mask


@pytest.mark.parametrize("n", [*range(13), 16])
def test_subset_labels_match_subset_label(n):
    assert subset_labels(n) == [subset_label(m) for m in range(1 << n)]


@pytest.mark.parametrize(
    "mask",
    [
        0b111 << 65534,
        1 | 0b11 << 65535 | 1 << 199999,
        1 << 131072,
        int("1000000" * 11429, 2) << 59999,
        (1 << 140000) - 1,
    ],
    ids=["across-window", "empty-windows", "second-window-start", "spread", "full"],
)
def test_subset_label_across_windows(mask):
    # labels are written 2^16 ranks at a time; no window may add or drop a comma
    assert subset_label(mask) == "[" + ",".join(map(str, ranks_from_mask(mask))) + "]"
