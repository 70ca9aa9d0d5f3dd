"""Flag vectors, their transforms, and cd polynomials.

For a poset of rank n + 1 the flag vector counts, for every subset S of
the proper ranks [1, n], the chains from bottom to top whose intermediate
elements occupy exactly the ranks in S:

    f_S = #{ chains 0 < x_1 < ... < x_k < 1 with ranks S }.

The h table is its inclusion-exclusion transform
``h_S = sum over T in S of (-1)^|S - T| f_T`` and the L table is the
normalized character sum

    L_Q = 2^(-n) * sum over S of (-1)^|S cap Q| h_S,

always an exact rational with denominator dividing 2^n.  For Eulerian
posets L vanishes off even rank sets and the surviving values assemble
into an integer polynomial in the noncommuting letters c (degree 1) and
d (degree 2): writing supp(w) for the positions covered by the d's of a
cd word w and r for the number of d's,

    [w] = (-2)^r * sum of L_Q over Q evenly containing supp(w).

:func:`cd_from_l` performs exactly that conversion, refusing input whose
L table does not vanish off even sets.  :func:`expand_cd_to_ab` goes the
other way, expanding c -> a + b and d -> ab + ba, which recovers the
generating polynomial of the h table.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

import numpy as np

from .errors import BudgetError, NotCdExpressibleError
from .poset import RankedPoset
from .subsets import (
    as_mask,
    evenly_contains,
    is_even_set,
    parse_subset,
    subset_label,
)

# full tables have 2^n entries; past this the dense representation is hopeless
MAX_FLAG_RANKS = 20

# Every partial sum of the int64 recursion counts chains through some ranks,
# so it is at most count_maximal_chains().  The recursion multiplies by
# RankedPoset.comparability, which is still an int64 0/1 matrix (its float
# kernel is internal to poset.py), so this bound is unchanged by it.
_INT64_SAFE = 2**62


class FlagVector:
    """Dense table over all 2^n subsets of the proper ranks.

    Also used as the container for the signed h table, which shares the
    indexing.  Entries are exact Python integers.
    """

    __slots__ = ("n", "values")

    def __init__(self, n: int, values: Iterable[int]):
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "values", tuple(int(v) for v in values))
        if len(self.values) != 1 << self.n:
            raise ValueError(f"expected {1 << self.n} entries, got {len(self.values)}")

    def __setattr__(self, name, value):
        raise AttributeError("FlagVector is immutable")

    def __getitem__(self, key: int | Iterable[int]) -> int:
        return self.values[as_mask(key)]

    def items(self):
        return enumerate(self.values)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FlagVector):
            return NotImplemented
        return self.n == other.n and self.values == other.values

    def __hash__(self) -> int:
        return hash((self.n, self.values))

    def __repr__(self) -> str:
        return f"FlagVector(n={self.n}, {len(self.values)} entries)"

    def to_dict(self) -> dict[str, str]:
        """Subset label -> decimal string, all 2^n entries."""
        return {subset_label(m): str(v) for m, v in self.items()}

    @classmethod
    def from_dict(cls, n: int, data: Mapping[str, str]) -> "FlagVector":
        values = [0] * (1 << n)
        for key, val in data.items():
            values[parse_subset(key)] = int(val)
        return cls(n, values)


class LVector:
    """Rational table over all 2^n subsets; denominators divide 2^n."""

    __slots__ = ("n", "values")

    def __init__(self, n: int, values: Iterable[Fraction]):
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "values", tuple(Fraction(v) for v in values))
        if len(self.values) != 1 << self.n:
            raise ValueError(f"expected {1 << self.n} entries, got {len(self.values)}")

    def __setattr__(self, name, value):
        raise AttributeError("LVector is immutable")

    def __getitem__(self, key: int | Iterable[int]) -> Fraction:
        return self.values[as_mask(key)]

    def items(self):
        return enumerate(self.values)

    def nonzero(self):
        return [(m, v) for m, v in self.items() if v]

    def __eq__(self, other) -> bool:
        if not isinstance(other, LVector):
            return NotImplemented
        return self.n == other.n and self.values == other.values

    def __repr__(self) -> str:
        return f"LVector(n={self.n}, {len(self.nonzero())} nonzero)"

    def to_dict(self) -> dict:
        """n plus the nonzero entries as exact rational strings."""
        return {
            "n": self.n,
            "entries": {subset_label(m): str(v) for m, v in self.nonzero()},
        }


# -- computing flag data ----------------------------------------------


def flag_vector(poset: RankedPoset) -> FlagVector:
    """Exact flag vector of a valid ranked poset.

    Chain counts are assembled from the comparability matrices between the
    selected ranks, sharing work across subsets with a common prefix.  When
    the total number of maximal chains fits comfortably in int64 the sums
    run vectorized; otherwise they fall back to Python integers, so results
    are exact regardless of size.
    """
    poset._require_valid()
    n = poset.n
    if n > MAX_FLAG_RANKS:
        raise BudgetError(f"flag vector over {n} proper ranks is out of budget")
    if poset.count_maximal_chains() < _INT64_SAFE:
        return _flag_vector_int64(poset)
    return _flag_vector_bigint(poset)


def _flag_vector_int64(poset: RankedPoset) -> FlagVector:
    n = poset.n
    top = poset.rank
    values = [0] * (1 << n)

    def rec(at: int, vec: np.ndarray, mask: int) -> None:
        values[mask] = int(vec @ poset.comparability(at, top)[:, 0])
        for s in range(at + 1, top):
            rec(s, vec @ poset.comparability(at, s), mask | 1 << (s - 1))

    rec(0, np.ones(1, dtype=np.int64), 0)
    return FlagVector(n, values)


def _flag_vector_bigint(poset: RankedPoset) -> FlagVector:
    n = poset.n
    top = poset.rank
    values = [0] * (1 << n)
    columns: dict[tuple[int, int], list[np.ndarray]] = {}

    def cols(r1: int, r2: int) -> list[np.ndarray]:
        key = (r1, r2)
        if key not in columns:
            m = poset.comparability(r1, r2)
            columns[key] = [np.flatnonzero(m[:, j]) for j in range(m.shape[1])]
        return columns[key]

    def rec(at: int, vec: list[int], mask: int) -> None:
        values[mask] = sum(vec[i] for i in cols(at, top)[0])
        for s in range(at + 1, top):
            nxt = [sum(vec[i] for i in col) for col in cols(at, s)]
            rec(s, nxt, mask | 1 << (s - 1))

    rec(0, [1], 0)
    return FlagVector(n, values)


def flag_h(flags: FlagVector) -> FlagVector:
    """Signed transform h_S = sum over T in S of (-1)^|S - T| f_T."""
    vals = list(flags.values)
    for bit in range(flags.n):
        step = 1 << bit
        for mask in range(1 << flags.n):
            if mask & step:
                vals[mask] -= vals[mask ^ step]
    return FlagVector(flags.n, vals)


def flag_from_h(h: FlagVector) -> FlagVector:
    """Inverse of :func:`flag_h`: f_S = sum over T in S of h_T."""
    vals = list(h.values)
    for bit in range(h.n):
        step = 1 << bit
        for mask in range(1 << h.n):
            if mask & step:
                vals[mask] += vals[mask ^ step]
    return FlagVector(h.n, vals)


def l_vector(flags: FlagVector) -> LVector:
    """L_Q = 2^(-n) * sum over S of (-1)^|S cap Q| h_S, exactly."""
    n = flags.n
    vals = list(flag_h(flags).values)
    for bit in range(n):
        step = 1 << bit
        for mask in range(1 << n):
            if not mask & step:
                a, b = vals[mask], vals[mask | step]
                vals[mask], vals[mask | step] = a + b, a - b
    scale = 1 << n
    return LVector(n, [Fraction(v, scale) for v in vals])


# -- cd words and polynomials ------------------------------------------


def _check_word(word: str) -> None:
    if not isinstance(word, str) or any(ch not in "cd" for ch in word):
        raise ValueError(f"cd word must consist of letters c and d, got {word!r}")


def cd_degree(word: str) -> int:
    """Degree of a cd word: c counts 1, d counts 2."""
    _check_word(word)
    return len(word) + word.count("d")


def cd_support(word: str) -> int:
    """Bitmask of the positions covered by the d's (two per d)."""
    _check_word(word)
    mask = 0
    pos = 1
    for ch in word:
        if ch == "d":
            mask |= 0b11 << (pos - 1)
            pos += 2
        else:
            pos += 1
    return mask


def d_intervals(word: str) -> list[tuple[int, int]]:
    """The 2-element interval [p, p+1] occupied by each d, in word order.

    Unlike the maximal runs of ``cd_support``, adjacent d's stay separate,
    so "dd" gives [(1, 2), (3, 4)].
    """
    _check_word(word)
    out = []
    pos = 1
    for ch in word:
        if ch == "d":
            out.append((pos, pos + 1))
            pos += 2
        else:
            pos += 1
    return out


def cd_words(n: int) -> list[str]:
    """All cd words of degree n, lexicographically with c before d.

    There are Fibonacci-many: one word of degree 0 and 1, two of degree 2,
    and so on.
    """
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    if n > MAX_FLAG_RANKS:
        raise BudgetError(f"enumerating cd words of degree {n} is out of budget")
    words: list[list[str]] = [[""], ["c"]]
    for m in range(2, n + 1):
        words.append(["c" + w for w in words[m - 1]] + ["d" + w for w in words[m - 2]])
    return words[n]


class CdPolynomial:
    """Homogeneous integer polynomial in the noncommuting letters c, d.

    ``n`` is the common degree of all terms (kept even when the polynomial
    is zero).  Supports addition, subtraction, scalar and polynomial
    multiplication, and powers, so closed forms like
    ``(m + 1) * c**4 - m * (c*c - 2*d)**2`` are written directly.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[str, int]):
        clean = {}
        for word, coeff in terms.items():
            _check_word(word)
            if cd_degree(word) != n:
                raise ValueError(f"term {word!r} has degree {cd_degree(word)}, not {n}")
            coeff = int(coeff)
            if coeff:
                clean[word] = coeff
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("CdPolynomial is immutable")

    @classmethod
    def monomial(cls, word: str, coeff: int = 1) -> "CdPolynomial":
        return cls(cd_degree(word), {word: coeff})

    def coefficient(self, word: str) -> int:
        _check_word(word)
        return self.terms.get(word, 0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CdPolynomial):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.n, tuple(sorted(self.terms.items()))))

    def __add__(self, other: "CdPolynomial") -> "CdPolynomial":
        if not isinstance(other, CdPolynomial):
            return NotImplemented
        if self.n != other.n and self.terms and other.terms:
            raise ValueError(f"cannot add polynomials of degrees {self.n} and {other.n}")
        n = self.n if self.terms or not other.terms else other.n
        terms = dict(self.terms)
        for word, coeff in other.terms.items():
            terms[word] = terms.get(word, 0) + coeff
        return CdPolynomial(n, terms)

    def __neg__(self) -> "CdPolynomial":
        return CdPolynomial(self.n, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "CdPolynomial") -> "CdPolynomial":
        if not isinstance(other, CdPolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "CdPolynomial":
        if isinstance(other, int):
            return CdPolynomial(self.n, {w: c * other for w, c in self.terms.items()})
        if isinstance(other, CdPolynomial):
            terms: dict[str, int] = {}
            for w1, c1 in self.terms.items():
                for w2, c2 in other.terms.items():
                    word = w1 + w2
                    terms[word] = terms.get(word, 0) + c1 * c2
            return CdPolynomial(self.n + other.n, terms)
        return NotImplemented

    def __rmul__(self, other) -> "CdPolynomial":
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __pow__(self, exponent: int) -> "CdPolynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = CdPolynomial(0, {"": 1})
        for _ in range(exponent):
            out = out * self
        return out

    def reverse(self) -> "CdPolynomial":
        """Reverse every word; this is the cd-index of the dual poset."""
        return CdPolynomial(self.n, {w[::-1]: c for w, c in self.terms.items()})

    def __repr__(self) -> str:
        return f"CdPolynomial({self.n}, {self.terms!r})"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for word, coeff in sorted(self.terms.items()):
            name = word if word else "1"
            if coeff == 1:
                txt = name
            elif coeff == -1:
                txt = f"-{name}"
            else:
                txt = f"{coeff}*{name}"
            bits.append(txt)
        return " + ".join(bits).replace("+ -", "- ")

    def to_dict(self) -> dict:
        return {"n": self.n, "terms": {w: self.terms[w] for w in sorted(self.terms)}}

    @classmethod
    def from_dict(cls, data: Mapping) -> "CdPolynomial":
        return cls(data["n"], dict(data["terms"]))


def cd_product(left: CdPolynomial, right: CdPolynomial) -> CdPolynomial:
    """Concatenation product; degrees add."""
    return left * right


class AbPolynomial:
    """Homogeneous polynomial in noncommuting a, b; a monomial is stored as
    the bitmask of its b positions (position p = bit p - 1)."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[int, int]):
        object.__setattr__(self, "n", int(n))
        object.__setattr__(
            self, "terms", {int(m): int(c) for m, c in terms.items() if int(c)}
        )
        for mask in self.terms:
            if mask >> self.n:
                raise ValueError(f"monomial mask {mask:#b} exceeds degree {self.n}")

    def __setattr__(self, name, value):
        raise AttributeError("AbPolynomial is immutable")

    @classmethod
    def from_h_table(cls, h: FlagVector) -> "AbPolynomial":
        """Generating polynomial of an h table: b's mark the ranks in S."""
        return cls(h.n, {m: v for m, v in h.items() if v})

    def coefficient(self, key: int | Iterable[int]) -> int:
        return self.terms.get(as_mask(key), 0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AbPolynomial):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __repr__(self) -> str:
        words = {
            "".join("b" if m >> p & 1 else "a" for p in range(self.n)): c
            for m, c in self.terms.items()
        }
        return f"AbPolynomial({self.n}, {words!r})"


def expand_cd_to_ab(poly: CdPolynomial) -> AbPolynomial:
    """Substitute c = a + b and d = ab + ba."""
    total: dict[int, int] = {}
    for word, coeff in poly.terms.items():
        partial = {0: 1}
        pos = 0
        for ch in word:
            nxt: dict[int, int] = {}
            if ch == "c":
                for mask, c in partial.items():
                    nxt[mask] = nxt.get(mask, 0) + c
                    nxt[mask | 1 << pos] = nxt.get(mask | 1 << pos, 0) + c
                pos += 1
            else:
                for mask, c in partial.items():
                    nxt[mask | 1 << (pos + 1)] = nxt.get(mask | 1 << (pos + 1), 0) + c
                    nxt[mask | 1 << pos] = nxt.get(mask | 1 << pos, 0) + c
                pos += 2
            partial = nxt
        for mask, c in partial.items():
            total[mask] = total.get(mask, 0) + coeff * c
    return AbPolynomial(poly.n, total)


# -- the cd-index -------------------------------------------------------


def cd_from_l(table: LVector) -> CdPolynomial:
    """Assemble the cd polynomial from an L table.

    Raises :class:`NotCdExpressibleError` when the table is nonzero on a
    rank set that is not even, and an internal error if a coefficient
    fails to come out integral (impossible for consistent input).
    """
    nonzero = table.nonzero()
    for mask, value in nonzero:
        if not is_even_set(mask):
            raise NotCdExpressibleError(
                f"L value {value} on non-even rank set {subset_label(mask)}", mask
            )
    terms = {}
    for word in cd_words(table.n):
        supp = cd_support(word)
        r = word.count("d")
        total = sum(
            (value for mask, value in nonzero if evenly_contains(supp, mask)),
            start=Fraction(0),
        )
        coeff = (-2) ** r * total
        if coeff.denominator != 1:
            raise RuntimeError(
                f"internal error: coefficient of {word!r} is non-integral ({coeff})"
            )
        terms[word] = int(coeff)
    return CdPolynomial(table.n, terms)


def cd_index(poset: RankedPoset) -> CdPolynomial:
    """The cd-index of a poset whose flag data admits one.

    Exists for all Eulerian posets; non-Eulerian posets typically fail with
    :class:`NotCdExpressibleError` (e.g. any chain of rank at least 2).
    """
    return cd_from_l(l_vector(flag_vector(poset)))
