"""Flag vectors, their transforms, and cd polynomials.

For a poset of rank n + 1 the flag vector counts, for every subset S of
the proper ranks [1, n], the chains from bottom to top whose intermediate
elements occupy exactly the ranks in S:

    f_S = #{ chains 0 < x_1 < ... < x_k < 1 with ranks S }.

The h table is its inclusion-exclusion transform
``h_S = sum over T in S of (-1)^|S - T| f_T`` and the L table is the
normalized character sum

    L_Q = 2^(-n) * sum over S of (-1)^|S cap Q| h_S,

always an exact rational with denominator dividing 2^n, so :class:`LVector`
stores the integer numerators 2^n * L_Q.  For Eulerian posets L vanishes
off even rank sets and the surviving values assemble into an integer
polynomial in the noncommuting letters c (degree 1) and d (degree 2):
writing supp(w) for the positions covered by the d's of a cd word w and r
for the number of d's,

    [w] = (-2)^r * sum of L_Q over Q evenly containing supp(w).

:func:`cd_from_l` performs exactly that conversion, refusing input whose
L table does not vanish off even sets.  :func:`expand_cd_to_ab` goes the
other way, expanding c -> a + b and d -> ab + ba, which recovers the
generating polynomial of the h table.

Exactness of the numpy kernels.  :func:`flag_vector` fills one table per
rank s whose entry (M, y) counts the chains with intermediate ranks
M + {s} ending at the element y of rank s.  Such chains extend to maximal
chains, and a maximal chain restricts to exactly one of them, so every
entry, and every partial sum of the nonnegative products that build it,
is an integer of at most ``count_maximal_chains()``.  Below 2^53 the
tables are in :func:`~cdposets.poset.exact_float_dtype` of that count and
multiply the poset's cached float 0/1 matrices, exact as the Eulerian test
is; from 2^53 on they are Python integers (object arrays), with the same
code, times int64 copies of those matrices made for the call.  The
h and L transforms are butterflies over the n bits of the mask; a stage
maps (a, b) to (a, b - a), (a, b + a) or, for L, (b, 2a - b), so it grows
the largest absolute value by at most a factor 2, 2 or 3.  They run in
int64 when 2^n, respectively 3^n, times the largest input stays below
2^63.  Otherwise each stage checks its own growth first, and the table
turns to Python integers only at the first stage that could reach 2^63,
if any.  Each result is held as it comes out, an int64 array when every
entry fits (see :class:`FlagVector`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from .errors import BudgetError, NotCdExpressibleError
from .poset import _FLOAT64_EXACT, RankedPoset, exact_float_dtype
from .subsets import (
    as_mask,
    maximal_runs,
    parse_subset,
    subset_label,
    subset_labels,
)

# full tables have 2^n entries; past this the dense representation is hopeless
MAX_FLAG_RANKS = 20

# Entries the chain-count tables of flag_vector may hold at once.  They
# hold sum over s > k of 2^(s-k-1) * L[s] entries when the ranks 1..k are
# walked depth first and only the ranks above k are batched; k is the
# least value that fits, so 0 whenever all the tables do.
_TABLE_ENTRIES = 1 << 22


class _IntTable:
    """2^n exact integers indexed by the masks of the proper ranks, held
    as one read-only ndarray, :attr:`array`: int64 when every entry fits
    and otherwise an object array of Python ints, never a dtype numpy
    infers.  The subclass gives the entries as a tuple of Python ints too,
    a ``cached_property`` built on first read: later reads find it in the
    instance dict with no call, which matters to the inequality sweep,
    one read per (T, V) pair.  A ``property`` would call a function on
    every read, and a ``__getattr__`` slows the reads of every attribute."""

    __slots__ = ("n", "array", "__dict__")

    @classmethod
    def _from_array(cls, n: int, array: np.ndarray):
        """The table holding ``array``, an int64 array or an object array
        of Python ints that no one else writes to; it is not copied."""
        table = cls.__new__(cls)
        table._fill(n, array)
        return table

    def _fill(self, n: int, array: np.ndarray) -> None:
        if array.dtype == object:
            try:
                array = array.astype(np.int64)
            except OverflowError:
                pass
        array.setflags(write=False)
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "array", array)
        if len(array) != 1 << self.n:
            raise ValueError(f"expected {1 << self.n} entries, got {len(array)}")

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.array, other.array)

    def __hash__(self) -> int:
        return hash((self.n, tuple(self.array.tolist())))


def _exact_array(entries: Iterable[int]) -> np.ndarray:
    """``int(e)`` for each entry, as an int64 array when all of them fit
    and as an object array otherwise."""
    ints = list(map(int, entries))
    try:
        return np.array(ints, dtype=np.int64)
    except OverflowError:
        return np.array(ints, dtype=object)


class FlagVector(_IntTable):
    """Dense table over all 2^n subsets of the proper ranks.

    Also used as the container for the signed h table, which shares the
    indexing.  Entries are exact: :attr:`array` holds them (see
    :class:`_IntTable`), and ``values``, indexing and :meth:`items` give
    them as Python ints.
    """

    __slots__ = ()

    def __init__(self, n: int, values: Iterable[int]):
        self._fill(n, _exact_array(values))

    @cached_property
    def values(self) -> tuple[int, ...]:
        return tuple(self.array.tolist())

    def __getitem__(self, key: int | Iterable[int]) -> int:
        return self.values[as_mask(key)]

    def items(self):
        return enumerate(self.values)

    def __repr__(self) -> str:
        return f"FlagVector(n={self.n}, {len(self.array)} entries)"

    def to_dict(self) -> dict[str, str]:
        """Subset label -> decimal string, all 2^n entries."""
        return dict(zip(subset_labels(self.n), map(str, self.values)))

    @classmethod
    def from_dict(cls, n: int, data: Mapping[str, str]) -> "FlagVector":
        values = [0] * (1 << n)
        for key, val in data.items():
            values[parse_subset(key)] = int(val)
        return cls(n, values)


class LVector(_IntTable):
    """Rational table over all 2^n subsets whose denominators divide 2^n.

    Stored as the integer numerators 2^n * L_Q in :attr:`array` (see
    :class:`_IntTable`), and as Python ints in ``numerators``; ``values``,
    indexing, :meth:`items` and :meth:`nonzero` give exact
    :class:`~fractions.Fraction` values, and :meth:`to_dict` their strings,
    written from the numerators.
    """

    __slots__ = ()

    def __init__(self, n: int, values: Iterable[Fraction]):
        scale = 1 << int(n)
        numerators = []
        for mask, value in enumerate(values):
            value = Fraction(value)
            if scale % value.denominator:
                raise ValueError(
                    f"L value {value} on {subset_label(mask)} has a denominator "
                    f"not dividing 2^{n}"
                )
            numerators.append(value.numerator * (scale // value.denominator))
        self._fill(n, _exact_array(numerators))

    @classmethod
    def from_numerators(cls, n: int, numerators: Iterable[int]) -> "LVector":
        """The table with entries numerators[Q] / 2^n."""
        return cls._from_array(n, _exact_array(numerators))

    @cached_property
    def numerators(self) -> tuple[int, ...]:
        return tuple(self.array.tolist())

    @property
    def values(self) -> tuple[Fraction, ...]:
        scale = 1 << self.n
        return tuple(Fraction(v, scale) for v in self.numerators)

    def __getitem__(self, key: int | Iterable[int]) -> Fraction:
        return Fraction(self.numerators[as_mask(key)], 1 << self.n)

    def items(self):
        return enumerate(self.values)

    def _nonzero_numerators(self):
        """(mask, numerator) of the nonzero entries, masks increasing."""
        masks = np.flatnonzero(self.array)
        return zip(masks.tolist(), self.array[masks].tolist())

    def nonzero(self):
        scale = 1 << self.n
        return [(m, Fraction(v, scale)) for m, v in self._nonzero_numerators()]

    def __repr__(self) -> str:
        return f"LVector(n={self.n}, {np.count_nonzero(self.array)} nonzero)"

    def _dense(self) -> bool:
        """Whether more than 2^n / 8 entries are nonzero: then their labels
        are read from ``subset_labels(n)``, whose entries cost about an
        eighth of a ``subset_label`` call each."""
        return 8 * np.count_nonzero(self.array) > len(self.array)

    def to_dict(self) -> dict:
        """n plus the nonzero entries as exact rational strings."""
        n = self.n
        label = subset_labels(n).__getitem__ if self._dense() else subset_label
        entries = self._nonzero_numerators()
        return {"n": n, "entries": {label(m): _dyadic_str(v, n) for m, v in entries}}


def _dyadic_str(numerator: int, n: int) -> str:
    """``str(Fraction(numerator, 2**n))`` without the gcd: the fraction in
    lowest terms drops the numerator's trailing zero bits, at most n."""
    k = min(n, (numerator & -numerator).bit_length() - 1) if numerator else n
    if k == n:
        return str(numerator >> n)
    return f"{numerator >> k}/{1 << (n - k)}"


# -- computing flag data ----------------------------------------------


def check_flag_ranks(n: int) -> None:
    """Refuse flag tables over more than ``MAX_FLAG_RANKS`` proper ranks."""
    if n > MAX_FLAG_RANKS:
        raise BudgetError(f"flag vector over {n} proper ranks is out of budget")


def flag_vector(poset: RankedPoset) -> FlagVector:
    """Exact flag vector of a valid ranked poset.

    The table is cached on the poset, which is immutable, and stored only
    once it has been computed, so a call that raises caches nothing and the
    next call raises the same error.  :meth:`RankedPoset.dual` hands the
    dual the bit reversal of a cached table (:func:`reversed_table`).

    Chain counts are built level by level: the table for rank s stacks,
    for every lower rank t, the table for t times comparability(t, s), so
    its row index is the mask of the ranks below s and the top rank's
    single column is the flag vector.  That is O(n^2) matrix products.
    When the tables would exceed a fixed entry cap, the lowest ranks are
    walked depth first and only the ranks above them are batched.  The
    tables are floats below 2^53 maximal chains and Python integers from
    there on (module docstring), so results are exact regardless of size.
    """
    if poset._flags is None:
        object.__setattr__(poset, "_flags", _computed_flag_vector(poset))
    return poset._flags


def _computed_flag_vector(poset: RankedPoset) -> FlagVector:
    """The flag vector from the matrix products of :func:`flag_vector`."""
    poset._require_valid()
    n = poset.n
    check_flag_ranks(n)
    chains = poset.count_maximal_chains()
    if chains < _FLOAT64_EXACT:
        dtype, comparability = exact_float_dtype(chains), poset._float_comparability
    else:
        # an object table times a float matrix would multiply by floats
        dtype, comparability = object, poset.comparability
    split = _split_rank(poset.level_sizes)
    values = np.empty(1 << n, dtype=dtype)
    # (rank, chain counts ending at its elements, mask) of the prefix walk
    stack = [(0, np.ones((1, 1), dtype=dtype), 0)]
    while stack:
        at, vec, mask = stack.pop()
        values[mask :: 1 << split] = _batched_counts(poset, comparability, at, vec, split)
        for s in range(at + 1, split + 1):
            stack.append((s, vec @ comparability(at, s), mask | 1 << (s - 1)))
    # a float table is exact below 2^53, so its int64 copy is too
    return FlagVector._from_array(n, values if dtype is object else values.astype(np.int64))


def reversed_table(table: np.ndarray) -> np.ndarray:
    """The 2^n table indexed by bit-reversed masks: f_S(P*) = f_(n+1-S)(P),
    the flag table of the dual.  Entries are only moved, so an object table
    stays exact."""
    n = len(table).bit_length() - 1
    return table.reshape([2] * n).transpose().ravel()


def _split_rank(sizes: tuple[int, ...]) -> int:
    """Least k whose batched tables for the ranks above k fit the cap."""
    top = len(sizes) - 1
    for k in range(top - 1):
        if sum(sizes[s] << (s - k - 1) for s in range(k + 1, top + 1)) <= _TABLE_ENTRIES:
            return k
    return top - 1


def _batched_counts(
    poset: RankedPoset, comparability, at: int, vec: np.ndarray, split: int
) -> np.ndarray:
    """Chain counts from the chains counted by ``vec`` (one row over the
    elements of rank ``at`` <= ``split``) to the top, for every set of
    intermediate ranks above ``split``, indexed by that set shifted down
    by ``split`` bits; ``comparability(t, s)`` gives the 0/1 matrices."""
    tables: list[np.ndarray] = []
    for s in range(split + 1, poset.rank + 1):
        table = np.empty((1 << (s - split - 1), poset.level_sizes[s]), dtype=vec.dtype)
        # row 0 comes straight from rank at; the rows of the block from rank
        # t are the masks whose highest rank is t
        np.matmul(vec, comparability(at, s), out=table[:1])
        for t, g in enumerate(tables, split + 1):
            np.matmul(g, comparability(t, s), out=table[len(g) : 2 * len(g)])
        tables.append(table)
    return tables[-1][:, 0]


def _largest(table: np.ndarray) -> int:
    """The largest absolute value in ``table``, as a Python int."""
    return max(int(table.max()), -int(table.min()))


def _butterflies(flags: FlagVector, growth: int, stage) -> np.ndarray:
    """A copy of the entries of ``flags`` with ``stage(low, high)`` applied
    in place for each of the n mask bits, to the views pairing every mask without the
    bit with the mask that adds it; each stage grows the largest absolute
    value by at most ``growth``.

    An int64 table stays int64 when ``growth^n`` times its largest entry is
    below 2^63, and then nothing is checked between stages.  Otherwise the
    largest entry is checked before each stage, and the table becomes an
    object array of Python ints at the first stage that could reach 2^63.
    """
    table = flags.array.copy()
    checked = table.dtype == np.int64 and growth**flags.n * _largest(table) >= 2**63
    for bit in range(flags.n):
        if checked and table.dtype == np.int64 and growth * _largest(table) >= 2**63:
            table = table.astype(object)
        halves = table.reshape(-1, 2, 1 << bit)
        stage(halves[:, 0], halves[:, 1])
    return table


def _h_stage(low: np.ndarray, high: np.ndarray) -> None:
    high -= low


def _f_stage(low: np.ndarray, high: np.ndarray) -> None:
    high += low


def _l_stage(low: np.ndarray, high: np.ndarray) -> None:
    low[...], high[...] = high, 2 * low - high


def flag_h(flags: FlagVector) -> FlagVector:
    """Signed transform h_S = sum over T in S of (-1)^|S - T| f_T."""
    return FlagVector._from_array(flags.n, _butterflies(flags, 2, _h_stage))


def flag_from_h(h: FlagVector) -> FlagVector:
    """Inverse of :func:`flag_h`: f_S = sum over T in S of h_T."""
    return FlagVector._from_array(h.n, _butterflies(h, 2, _f_stage))


def l_vector(flags: FlagVector) -> LVector:
    """L_Q = 2^(-n) * sum over S of (-1)^|S cap Q| h_S, exactly.

    One butterfly pass: the h step (a, b) -> (a, b - a) followed by the
    character step (x, y) -> (x + y, x - y) is (a, b) -> (b, 2a - b), and
    n such stages give the numerators 2^n * L directly.
    """
    return LVector._from_array(flags.n, _butterflies(flags, 3, _l_stage))


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
    mask = 0
    for low, _ in d_intervals(word):
        mask |= 0b11 << (low - 1)
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

    Each nonzero L_Q is expanded forward: the words w whose support Q
    evenly contains have c at every position outside Q and, on each
    maximal run of Q of length 2k, a word of (cc - 2d)^k, whose
    coefficient is the (-2)^r of the formula above.  The sums are taken in
    numerators over 2^n and divided at the end.

    Raises :class:`NotCdExpressibleError` when the table is nonzero on a
    rank set that is not even, and an internal error if a coefficient
    fails to come out integral (impossible for consistent input).
    """
    n = table.n
    scale = 1 << n
    # runs[k]: the words of (cc - 2d)^k with their coefficients
    runs = [[("", 1)]]
    for _ in range(n // 2):
        runs.append([(p + w, pc * c) for p, pc in (("cc", 1), ("d", -2)) for w, c in runs[-1]])
    sums: dict[str, int] = {}
    for mask, a in table._nonzero_numerators():
        # one scan both proves Q even and gives the runs to expand
        mask_runs = maximal_runs(mask)
        if any((high - low + 1) % 2 for low, high in mask_runs):
            raise NotCdExpressibleError(
                f"L value {Fraction(a, scale)} on non-even rank set {subset_label(mask)}",
                mask,
            )
        words = [("", a)]
        pos = 1
        # the empty run (n + 1, n) adds the c's after the last run
        for low, high in mask_runs + [(n + 1, n)]:
            gap = "c" * (low - pos)
            words = [
                (w + gap + piece, c * pc)
                for w, c in words
                for piece, pc in runs[(high - low + 1) // 2]
            ]
            pos = high + 1
        for word, c in words:
            sums[word] = sums.get(word, 0) + c
    terms = {}
    for word in sorted(sums):  # the order of cd_words
        coeff, rest = divmod(sums[word], scale)
        if rest:
            raise RuntimeError(
                f"internal error: coefficient of {word!r} is non-integral "
                f"({Fraction(sums[word], scale)})"
            )
        terms[word] = coeff
    return CdPolynomial(n, terms)


def cd_index(poset: RankedPoset) -> CdPolynomial:
    """The cd-index of a poset whose flag data admits one.

    Exists for all Eulerian posets; non-Eulerian posets typically fail with
    :class:`NotCdExpressibleError` (e.g. any chain of rank at least 2).
    """
    return cd_from_l(l_vector(flag_vector(poset)))
