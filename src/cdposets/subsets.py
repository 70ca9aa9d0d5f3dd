"""Subsets of proper ranks [1, n] encoded as integer bitmasks.

Rank ``s`` corresponds to bit ``s - 1``, so the subset {1, 3} is the mask
0b101.  Masks keep every transform over the 2^n subsets cheap; helpers here
convert to and from explicit rank lists and implement the parity notions
used throughout: a subset is *even* when every maximal run of consecutive
ranks has even length, and Q *evenly contains* S when S and Q are even,
S is a subset of Q, and Q minus S is even as well.

Python integers keep masks of any width exact, and every helper here
takes masks of any width.  Ranks, maximal runs, labels and reversed
masks are read from ``bin(mask)`` in one pass, so they cost time linear
in the width however many runs there are; peeling bits or runs off the
integer, or setting them one at a time, would copy it once per bit or
run.  ``MAX_RANKS`` bounds only rank lists that come from outside input
(:func:`as_mask`, and so :func:`parse_subset`) and :func:`full_mask`,
whose n sizes sweeps over all 2^n masks such as
:func:`cdposets.analysis.inequality_pairs`.
"""

from __future__ import annotations

import json
from typing import Iterable

MAX_RANKS = 62


def as_mask(ranks: int | Iterable[int]) -> int:
    """Coerce an iterable of ranks (or an existing mask) to a bitmask."""
    if isinstance(ranks, int):
        if ranks < 0:
            raise ValueError("bitmask must be nonnegative")
        return ranks
    mask = 0
    for s in ranks:
        if not 1 <= s <= MAX_RANKS:
            raise ValueError(f"rank {s} outside supported range [1, {MAX_RANKS}]")
        mask |= 1 << (s - 1)
    return mask


def _bits(mask: int) -> str:
    """``mask`` in binary, lowest bit first: rank s is the character at
    index s - 1."""
    # bin of a negative mask carries a sign, so its characters are not bits
    if mask < 0:
        raise ValueError("bitmask must be nonnegative")
    return bin(mask)[:1:-1]


def ranks_from_mask(mask: int) -> tuple[int, ...]:
    """Sorted tuple of ranks present in ``mask``."""
    return tuple(s for s, bit in enumerate(_bits(mask), 1) if bit == "1")


def full_mask(n: int) -> int:
    if not 0 <= n <= MAX_RANKS:
        raise ValueError(f"n must be in [0, {MAX_RANKS}]")
    return (1 << n) - 1


def reverse_mask(mask: int, n: int) -> int:
    """Image of a subset of [1, n] under the flip s -> n + 1 - s."""
    bits = _bits(mask)
    high = bits.find("1", max(n, 0))
    if high >= 0:
        raise ValueError(f"rank {high + 1} exceeds n = {n}")
    # rank s is character s - 1 of bits and bit n - s of the image, so
    # bits padded to n characters is the image written highest bit first
    return int(bits[:n].ljust(n, "0") or "0", 2)


def maximal_runs(mask: int) -> list[tuple[int, int]]:
    """Maximal intervals [a, b] of consecutive ranks present in ``mask``."""
    bits = _bits(mask)
    runs = []
    start = bits.find("1")
    while start >= 0:
        stop = bits.find("0", start)
        if stop < 0:
            stop = len(bits)
        # ranks start + 1 .. stop are the characters start .. stop - 1
        runs.append((start + 1, stop))
        start = bits.find("1", stop)
    return runs


def is_even_set(ranks: int | Iterable[int]) -> bool:
    """True when every maximal run of consecutive ranks has even length.

    The empty set qualifies (a union of zero even intervals).
    """
    mask = as_mask(ranks)
    return all((b - a + 1) % 2 == 0 for a, b in maximal_runs(mask))


def evenly_contains(inner: int | Iterable[int], outer: int | Iterable[int]) -> bool:
    """True when ``outer`` evenly contains ``inner``.

    Requires inner and outer even, inner a subset of outer, and the
    difference outer minus inner even.
    """
    s = as_mask(inner)
    q = as_mask(outer)
    if s & ~q:
        return False
    return is_even_set(s) and is_even_set(q) and is_even_set(q & ~s)


# ranks that subset_label turns into text at a time
_LABEL_WINDOW = 1 << 16


def subset_label(mask: int) -> str:
    """Canonical string key for a subset, e.g. "[1,2]"; "[]" for the empty set."""
    bits = _bits(mask)
    # one window of ranks at a time: its rank ints and their strings are
    # freed before the next, so the label and its pieces are the largest
    # things built, about 2 bytes for each byte of the label
    chunks = [
        ",".join(
            [str(s) for s, bit in enumerate(bits[w : w + _LABEL_WINDOW], w + 1) if bit == "1"]
        )
        for w in range(0, len(bits), _LABEL_WINDOW)
    ]
    return "[" + ",".join(filter(None, chunks)) + "]"


def subset_labels(n: int) -> list[str]:
    """``subset_label(mask)`` for every mask below 2^n, in mask order.

    Built as one string: the masks that add rank s are the earlier ones
    with ",s" before the closing bracket, so each rank is one replace over
    the labels so far.
    """
    text = "[]"
    for s in range(1, n + 1):
        text += "|" + text.replace("]", f",{s}]")
    return text.replace("[,", "[").split("|")


def parse_subset(text: str) -> int:
    """Inverse of :func:`subset_label`; also accepts "1,2" shorthand."""
    text = text.strip()
    if not text or text == "[]":
        return 0
    if text.startswith("["):
        try:
            ranks = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"bad subset {text!r}: {exc}") from None
        if not isinstance(ranks, list) or not all(type(r) is int for r in ranks):
            raise ValueError(f"bad subset {text!r}: expected a list of ints")
        return as_mask(ranks)
    try:
        ranks = [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"bad subset {text!r}: {exc}") from None
    return as_mask(ranks)
