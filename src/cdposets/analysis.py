"""Limits, inequalities, and the classification of cd words by the signs
their coefficients can take over Eulerian posets.

Every cd word w of degree n falls into exactly one class:

* ``Part2``: w = c^n.  The coefficient is 1 for every Eulerian poset.
* ``Part1a``: w = c^i d c^j with min(i, j) <= 1.
* ``Part1b``: w = c^i (dc)^(r-1) d c^j with r >= 2 d's separated by single
  c's.  Part1a and Part1b words have nonnegative coefficients over all
  Eulerian posets, certified by a pair (T, V) for the interval inequality
  below.
* ``Part3``: everything else.  Each such word contains a witness subword,
  either ``ccdcc`` or ``d c^m d`` with m != 1, and suitable poset families
  drive its coefficient to minus infinity (and, dually, to plus infinity).

The interval inequality: for T within V within [1, n] such that every
maximal run of V meets T at most once, and S the complement of V, every
Eulerian poset satisfies

    sum over R within T of (-2)^|T - R| f_(S union R)  >=  0
    (-1)^|T| * sum over T within Q within V of L_Q      >=  0

The L form is the f form divided by 2^(|S| + |T|), for every table, Eulerian
or not.  Write L_Q = 2^(-n) sum over U of (-1)^|U cap Q| h_U and sum the
characters over T within Q within V first: they cancel unless U misses
V - T, and then give (-1)^|U cap T| 2^|V - T|.  So the L form is
2^(|V| - |T| - n) (-1)^|T| times the sum over R within T and A within S
of (-1)^|R| h_(A union R).  Inverting h to f, the sum over A within S of
h_(A union R) is the sum over R' within R of (-1)^|R - R'| f_(S union R'),
and summing over R' within R within T with the sign (-1)^|T| leaves
(-2)^|T - R'| at f_(S union R'): the f form.  Since |V| - |T| - n is
-(|S| + |T|), the two forms also share their sign.

The run condition costs one addition: for T within V within [1, n],
every maximal run of V meets T at most once exactly when (V + T) & T is
zero.  Adding T to V carries each bit of T past the top of its run,
clearing the bits it passes, so in a run that meets T twice the carry of
the lower bit stops at the higher one and leaves it set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from typing import Sequence

from .constructions import Interval
from .errors import BudgetError
from .exprs import _plan, build_poset, parse_expression
from .flags import (
    FlagVector,
    LVector,
    cd_degree,
    cd_from_l,
    cd_support,
    l_vector,
)
from .poset import RankedPoset
from .subsets import (
    as_mask,
    evenly_contains,
    full_mask,
    maximal_runs,
    ranks_from_mask,
    subset_label,
)

# unions the steps may visit, and mask bits the unions they build may hold
_LIMIT_VISITS = 1 << 20
_LIMIT_TABLE_BITS = 1 << 30


# -- limits over growing replication ----------------------------------


def limit_l_vector(n: int, intervals: Sequence[Interval]) -> dict[int, int]:
    """Limit of the normalized L table of the replicated-and-doubled chain
    as the number of copies grows.

    Returns a sparse table over bitmasks: for each union S of a subfamily
    of the intervals, the alternating count

        L_S = sum over j of (-1)^j #{ j-subfamilies with union S },

    including entries that cancel to zero.  The empty union gives L of the
    empty set = 1.  The system need not be an even interval system.

    Raises :class:`BudgetError` before a step builds its mask when the
    unions the steps visit (the table sizes summed, bounding the time and
    the table) pass 2^20, or the bits of the unions they build (each size
    times the highest end so far, summed) pass 2^30.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    for a, b in intervals:
        if not 1 <= a <= b <= n:
            raise ValueError(f"interval [{a}, {b}] not within [1, {n}]")
    # one inclusion-exclusion step per interval: the subfamilies that take
    # it flip the sign of those that do not and move to their union with
    # it; ranks a..b are bits a - 1..b - 1, and shifts keep any n exact
    table = {0: 1}
    visits = bits = top = 0
    for a, b in intervals:
        top = max(top, b)
        visits += len(table)
        bits += len(table) * top
        if visits > _LIMIT_VISITS:
            raise BudgetError(
                f"limit_l_vector would visit {visits} unions, "
                f"limit is 2^{_LIMIT_VISITS.bit_length() - 1}"
            )
        if bits > _LIMIT_TABLE_BITS:
            raise BudgetError(
                f"limit_l_vector would build {bits} mask bits, "
                f"limit is 2^{_LIMIT_TABLE_BITS.bit_length() - 1}"
            )
        mask = (1 << b) - (1 << (a - 1))
        for union, value in list(table.items()):
            table[union | mask] = table.get(union | mask, 0) - value
    return table


def limit_cd_coefficient(word: str, intervals: Sequence[Interval]) -> int:
    """Limit coefficient of ``word`` along the replicated-chain family with
    the given intervals: (-2)^r times the sum of limit L values over rank
    sets evenly containing the support of the word.
    """
    n = cd_degree(word)
    table = limit_l_vector(n, intervals)
    supp = cd_support(word)
    total = sum(v for mask, v in table.items() if evenly_contains(supp, mask))
    return (-2) ** word.count("d") * total


# -- the interval inequality -------------------------------------------


def _check_inequality_pair(n: int, t_mask: int, v_mask: int) -> None:
    # Adding T to V carries each bit of T past the top of its run of V,
    # clearing the bits it passes; a run that meets T twice keeps its
    # higher T bit set, where the carry of the lower one stops.  So once V
    # is within [1, n] and T within V, (V + T) & T is zero exactly when
    # every run meets T at most once, and only an invalid pair reaches the
    # run scan that words the message.
    if v_mask >> n or t_mask & ~v_mask or (v_mask + t_mask) & t_mask:
        _raise_invalid_pair(n, t_mask, v_mask)


def _raise_invalid_pair(n: int, t_mask: int, v_mask: int) -> None:
    if v_mask & ~full_mask(n):
        raise ValueError(f"V = {subset_label(v_mask)} not within [1, {n}]")
    if t_mask & ~v_mask:
        raise ValueError(
            f"T = {subset_label(t_mask)} not within V = {subset_label(v_mask)}"
        )
    for a, b in maximal_runs(v_mask):
        run = full_mask(b) & ~full_mask(a - 1)
        if (run & t_mask).bit_count() > 1:
            raise ValueError(
                f"maximal run [{a}, {b}] of V meets T more than once"
            )


def inequality_f_form(flags: FlagVector, t_set, v_set) -> int:
    """sum over R within T of (-2)^|T - R| f_(S union R), with S = [1,n] - V.

    Nonnegative whenever the flag vector comes from an Eulerian poset and
    (T, V) satisfies the run condition checked here.
    """
    # valid masks pass as they are: this runs once per (T, V) pair
    t_mask = t_set if type(t_set) is int and t_set >= 0 else as_mask(t_set)
    v_mask = v_set if type(v_set) is int and v_set >= 0 else as_mask(v_set)
    _check_inequality_pair(flags.n, t_mask, v_mask)
    s_mask = ((1 << flags.n) - 1) ^ v_mask
    values = flags.values
    total = 0
    r = t_mask
    while True:
        total += (-2) ** (t_mask ^ r).bit_count() * values[s_mask | r]
        if r == 0:
            break
        r = (r - 1) & t_mask
    return total


def inequality_l_form(table: LVector, t_set, v_set) -> Fraction:
    """(-1)^|T| * sum of L_Q over T within Q within V."""
    # valid masks pass as they are: this runs once per (T, V) pair
    t_mask = t_set if type(t_set) is int and t_set >= 0 else as_mask(t_set)
    v_mask = v_set if type(v_set) is int and v_set >= 0 else as_mask(v_set)
    _check_inequality_pair(table.n, t_mask, v_mask)
    free = v_mask ^ t_mask
    numerators = table.numerators
    total = 0
    a = free
    while True:
        total += numerators[t_mask | a]
        if a == 0:
            break
        a = (a - 1) & free
    if t_mask.bit_count() & 1:
        total = -total
    return Fraction(total, 1 << table.n)


def inequality_pairs(n: int):
    """Yield every (T, V) mask pair valid for the interval inequality.

    V runs through the masks below 2^n in increasing order.  For each V, T
    takes one choice per maximal run of V, lowest run varying slowest:
    each rank of the run from the highest down, then none.
    """
    for v_mask in range(full_mask(n) + 1):
        choices = [
            [1 << (s - 1) for s in range(b, a - 1, -1)] + [0]
            for a, b in maximal_runs(v_mask)
        ]
        for picks in product(*choices):
            yield sum(picks), v_mask


# -- classification of cd words ----------------------------------------


@dataclass(frozen=True)
class Certificate:
    """Sets witnessing nonnegativity of a Part1 word's coefficient.

    For the word's support supp(w), the rank sets Q evenly containing
    supp(w) are exactly the even Q with T within Q within V, so the
    coefficient equals 2^r times the (T, V) instance of the interval
    inequality.
    """

    word: str
    tag: str
    s_mask: int
    t_mask: int
    v_mask: int

    def to_dict(self) -> dict:
        return {
            "word": self.word,
            "class": self.tag,
            "S": list(ranks_from_mask(self.s_mask)),
            "T": list(ranks_from_mask(self.t_mask)),
            "V": list(ranks_from_mask(self.v_mask)),
        }


@dataclass(frozen=True)
class WordClass:
    word: str
    tag: str
    witness: str | None = None
    position: int | None = None
    certificate: Certificate | None = None

    def to_dict(self) -> dict:
        out: dict = {"word": self.word, "class": self.tag}
        if self.witness is not None:
            out["witness"] = self.witness
            out["position"] = self.position
        if self.certificate is not None:
            cert = self.certificate.to_dict()
            out["S"] = cert["S"]
            out["T"] = cert["T"]
            out["V"] = cert["V"]
        return out


def _raw_classify(word: str) -> tuple[str, dict]:
    n = cd_degree(word)
    ds = [k for k, ch in enumerate(word) if ch == "d"]
    if not ds:
        return "Part2", {"n": n}
    if len(ds) == 1:
        i = ds[0]
        j = len(word) - i - 1
        if min(i, j) <= 1:
            return "Part1a", {"n": n, "i": i, "j": j}
        return "Part3", {"n": n, "witness": "ccdcc", "position": i - 2}
    gaps = [ds[k + 1] - ds[k] - 1 for k in range(len(ds) - 1)]
    for k, gap in enumerate(gaps):
        if gap != 1:
            return "Part3", {
                "n": n,
                "witness": "d" + "c" * gap + "d",
                "position": ds[k],
            }
    i = ds[0]
    j = len(word) - ds[-1] - 1
    return "Part1b", {"n": n, "i": i, "j": j, "r": len(ds)}


def classify_word(word: str) -> WordClass:
    """Classify a cd word and attach its witness or certificate.

    Part3 results carry the located bad subword (``ccdcc`` or ``d c^m d``
    with m != 1) and its letter position; Part1 results carry the
    nonnegativity certificate.
    """
    tag, info = _raw_classify(word)
    if tag == "Part3":
        return WordClass(word, tag, witness=info["witness"], position=info["position"])
    if tag == "Part2":
        return WordClass(word, tag)
    return WordClass(word, tag, certificate=_certificate(word, tag, info))


def _certificate(word: str, tag: str, info: dict) -> Certificate:
    # rank s is bit s - 1; shifts keep words of any degree exact
    n = info["n"]
    if tag == "Part1a":
        i, j = info["i"], info["j"]
        if i == 0:
            s_mask, t_mask = 0, 1
        elif i == 1:
            s_mask, t_mask = 1, 1 << 1
        elif j == 0:
            s_mask, t_mask = 0, 1 << (n - 1)
        else:  # j == 1
            s_mask, t_mask = 1 << (n - 1), 1 << (n - 2)
    else:
        i, r = info["i"], info["r"]
        s_mask = sum(1 << (i + 3 * t - 1) for t in range(1, r))
        t_mask = 1 << (i + 1) | sum(1 << (i + 3 * t - 3) for t in range(2, r + 1))
    v_mask = ((1 << n) - 1) & ~s_mask
    cert = Certificate(word, tag, s_mask, t_mask, v_mask)
    _check_inequality_pair(n, t_mask, v_mask)
    return cert


def nonneg_certificate(word: str) -> Certificate:
    """Certificate (S, T, V) for a Part1a or Part1b word."""
    tag, info = _raw_classify(word)
    if tag not in ("Part1a", "Part1b"):
        raise ValueError(f"{word!r} is {tag}, which has no nonnegativity certificate")
    return _certificate(word, tag, info)


def count_part1_words(n: int) -> int:
    """Number of degree-n words in Part1a or Part1b, for n >= 5.

    There are 4 Part1a words, and the Part1b words with r >= 2 d's number
    n - 3r + 2 for each r with 3r <= n + 1; the sum is
    floor(C(n-2, 2) / 3) + 4, returned without listing any word.
    """
    if n < 5:
        raise ValueError(f"count is defined for degree at least 5, got {n}")
    return math.comb(n - 2, 2) // 3 + 4


# -- explicit witnesses for Part3 words ---------------------------------


@dataclass(frozen=True)
class NegativeWitness:
    """A poset realizing a negative contribution for a Part3 word.

    ``expression`` names the poset: a base family chosen by the subword
    (``base``), joined below/above with boolean lattices matching the
    prefix and suffix.  ``coefficient`` is the computed cd coefficient of
    the full word; it is strictly decreasing in the copies parameter from
    2 on, so large enough parameters make it arbitrarily negative.
    ``coefficient`` and ``level_sizes`` come from the expression tree;
    ``poset`` is built from it, under the same budget, only when read.
    """

    word: str
    witness: str
    position: int
    base: str
    expression: str
    level_sizes: tuple[int, ...]
    coefficient: int
    budget: int | None = None

    @cached_property
    def poset(self) -> RankedPoset:
        return build_poset(parse_expression(self.expression), budget=self.budget)

    def to_dict(self) -> dict:
        return {
            "word": self.word,
            "witness": self.witness,
            "position": self.position,
            "base": self.base,
            "coefficient": self.coefficient,
            "trend": "strictly decreasing in the copies parameter from 2 on",
        }


def negative_witness(
    word: str, copies: int, *, budget: int | None = None
) -> NegativeWitness:
    """An Eulerian poset whose cd-index is negative on ``word`` once
    ``copies`` is large enough.

    The witness subword picks the base family: ``ccdcc`` uses the rank-7
    glued family, ``d c^m d`` uses the replicated chain of rank m + 5 when
    m is even and the rank m + 5 glued family when m is odd.  Boolean
    lattices are joined on to account for the prefix and suffix.
    """
    tag, info = _raw_classify(word)
    if tag != "Part3":
        raise ValueError(f"{word!r} is {tag}; witnesses exist only for Part3 words")
    # each base family's first check, which the grammar cannot carry for N < 0
    if copies < 1:
        raise ValueError(f"copies must be at least 1, got {copies}")
    witness, position = info["witness"], info["position"]
    if witness == "ccdcc":
        base = f"lemma3({copies})"
    else:
        m = len(witness) - 2
        degree = m + 4
        if degree % 2 == 0:
            base = f"dp({degree},[[1,{degree}]],{copies})"
        else:
            base = f"lemma2({degree},{copies})"
    prefix_degree = cd_degree(word[:position])
    suffix_degree = cd_degree(word[position + len(witness):])
    expression = base
    if prefix_degree:
        expression = f"join(boolean({prefix_degree + 1}),{expression})"
    if suffix_degree:
        expression = f"join({expression},boolean({suffix_degree + 1}))"
    plan = _plan(parse_expression(expression), budget)
    coefficient = cd_from_l(l_vector(plan.flags())).coefficient(word)
    return NegativeWitness(
        word, witness, position, base, expression, tuple(plan.sizes), coefficient, budget
    )
