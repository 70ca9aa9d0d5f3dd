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

Here Q evenly contains S when S and Q - S are even subsets of Q.
:func:`cd_from_l` performs exactly that conversion, refusing input whose
L table does not vanish off even sets.  :func:`expand_cd_to_ab` goes the
other way, expanding c -> a + b and d -> ab + ba, which returns the h
table.

Pair-start masks.  Write a set of pairs {p, p + 1} by the mask P of their
first elements, bit p - 1 for the pair at p.
- Even sets are these unions.  A maximal run [a, b] of an even set Q has
  even length, so it is the union of the pairs at a, a + 2, ..., b - 1;
  call the mask of all these first elements P(Q), so Q = P | P << 1.
  Conversely, let P be a mask of [1, n - 1] with no two adjacent bits.
  Then Q = P | P << 1 is a union of disjoint pairs, and each maximal run
  of Q is a union of whole pairs, so Q is even.  A run's first rank a is
  a pair's first element, since a - 1 is not in Q, and the pairs of the
  run follow at a + 2, a + 4, ...; so P(Q) = P.  Q -> P(Q) is therefore
  a bijection from the even subsets of [1, n] onto the masks of
  [1, n - 1] with no two adjacent bits.
- A cd word w has one pair per d, at the d's first position.  Its d's
  in a row make one run of supp(w), aligned from the first of them, so
  P(supp(w)), written P(w), is the mask of the d's first positions.
- Q evenly contains supp(w) exactly when P(w) is a subset of P(Q).  If
  it is, then supp(w) is a subset of Q, and Q - supp(w) is the union of
  the other pairs of Q, which is even by the first point.  Conversely,
  let supp(w) and Q - supp(w) be even subsets of Q.  Their maximal runs
  lie inside the runs of Q and tile each run [a, b] of Q in turn.  Every
  tile has even length, so every tile starts at a plus an even number.
  The pairs of supp(w) run from the start of each of its tiles, so they
  start at a, a + 2, ...: they are pairs of Q.

So [w] is a superset sum over pair-start masks, which :func:`cd_from_l`
takes as one butterfly (below).

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

The superset sum of :func:`cd_from_l` is a butterfly of the same kind,
over the n - 1 bits of a pair-start mask, with the stage (a, b) ->
(a + b, b).  After the stages of the bits below k, the entry at P sums
the numerators at the masks that contain P and agree with it from bit k
on.  These are distinct masks, so each entry is a sum of distinct L
numerators, and a stage adds two such sums over disjoint sets of masks.
A stage therefore at most doubles the largest absolute value, and
2^(n - 1) times the largest numerator bounds every entry: the growth-2
rule of the h transform applies as it stands.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Mapping

import numpy as np

from .errors import BudgetError, NotCdExpressibleError
from .poset import _FLOAT64_EXACT, RankedPoset, exact_float_dtype
from .subsets import (
    as_mask,
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
    indexing, and so for the ab-index of :func:`expand_cd_to_ab`.
    Entries are exact: :attr:`array` holds them (see :class:`_IntTable`),
    and ``values``, indexing and :meth:`items` give them as Python ints.
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


def _butterflies(table: np.ndarray, growth: int, stage) -> np.ndarray:
    """``table``, 2^k entries that the caller hands over, with
    ``stage(low, high)`` applied in place for each of the k mask bits, to
    the views pairing every mask without the bit with the mask that adds
    it; each stage grows the largest absolute value by at most ``growth``.

    An int64 table stays int64 when ``growth^k`` times its largest entry is
    below 2^63, and then nothing is checked between stages.  Otherwise the
    largest entry is checked before each stage, and the table becomes an
    object array of Python ints at the first stage that could reach 2^63;
    that array is returned in place of ``table``.
    """
    bits = len(table).bit_length() - 1
    checked = table.dtype == np.int64 and growth**bits * _largest(table) >= 2**63
    for bit in range(bits):
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


def _superset_stage(low: np.ndarray, high: np.ndarray) -> None:
    low += high


def flag_h(flags: FlagVector) -> FlagVector:
    """Signed transform h_S = sum over T in S of (-1)^|S - T| f_T."""
    return FlagVector._from_array(flags.n, _butterflies(flags.array.copy(), 2, _h_stage))


def flag_from_h(h: FlagVector) -> FlagVector:
    """Inverse of :func:`flag_h`: f_S = sum over T in S of h_T."""
    return FlagVector._from_array(h.n, _butterflies(h.array.copy(), 2, _f_stage))


def l_vector(flags: FlagVector) -> LVector:
    """L_Q = 2^(-n) * sum over S of (-1)^|S cap Q| h_S, exactly.

    One butterfly pass: the h step (a, b) -> (a, b - a) followed by the
    character step (x, y) -> (x + y, x - y) is (a, b) -> (b, 2a - b), and
    n such stages give the numerators 2^n * L directly.
    """
    return LVector._from_array(flags.n, _butterflies(flags.array.copy(), 3, _l_stage))


# -- cd words and polynomials ------------------------------------------


def _check_word(word: str) -> None:
    if not isinstance(word, str) or word.strip("cd"):
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
    return list(_cd_word_starts(n)[0])


# one entry per degree a flag table can have: listing the words costs
# more than a whole small cd_from_l call
@lru_cache(maxsize=MAX_FLAG_RANKS + 1)
def _cd_word_starts(n: int) -> tuple[tuple[str, ...], np.ndarray, tuple[int, ...]]:
    """The cd words of degree n in the order of :func:`cd_words`, each
    one's pair-start mask (bit p - 1 set for a d at positions p, p + 1) as
    a read-only int64 array, and each one's number of d's.

    The words of degree m are c times those of degree m - 1, then d times
    those of degree m - 2: a c shifts the masks by one position and a d by
    two, setting bit 0.  Each block is in order, so the list is sorted.
    """
    layouts = [((word,), np.zeros(1, dtype=np.int64), (0,)) for word in ("", "c")]
    for _ in range(2, n + 1):
        (c_words, c_starts, c_ds), (d_words, d_starts, d_ds) = layouts[-1], layouts[-2]
        layouts.append(
            (
                tuple(["c" + w for w in c_words] + ["d" + w for w in d_words]),
                np.concatenate((c_starts << 1, d_starts << 2 | 1)),
                c_ds + tuple([d + 1 for d in d_ds]),
            )
        )
    words, starts, ds = layouts[n]
    starts.setflags(write=False)
    return words, starts, ds


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


def expand_cd_to_ab(poly: CdPolynomial) -> FlagVector:
    """Substitute c = a + b and d = ab + ba: the ab polynomial, as the
    table of its coefficients indexed by the set S of each monomial's b
    positions.  For the cd-index of a poset that table is the h table,
    ``flag_h(flag_vector(P))``.

    A word w expands, each monomial once, into the S that hold exactly one
    of p, p + 1 for each d at positions p, p + 1 and anything at the c's.
    Exactly one of p, p + 1 lies in S when bit p - 1 of X(S) = S ^ (S >> 1)
    is set, so with X(S) cut to the n - 1 bits of a pair-start mask
    (module docstring), S gets the coefficients of the words w with P(w) a
    subset of X(S).  That is a subset sum over the pair-start masks, one
    butterfly ``high += low`` under the growth-2 rule (each entry is a sum
    of distinct coefficients), from the coefficients put on their words'
    masks (:func:`_cd_word_starts`) and read at X(S) for all 2^n sets S.

    Raises :class:`BudgetError` past ``MAX_FLAG_RANKS``, where the 2^n
    monomials outgrow a dense table.
    """
    n = poly.n
    if n > MAX_FLAG_RANKS:
        raise BudgetError(f"expanding a cd polynomial of degree {n} is out of budget")
    words, starts, _ = _cd_word_starts(n)
    coefficients = _exact_array([poly.terms.get(word, 0) for word in words])
    sums = np.zeros(1 << max(n - 1, 0), dtype=coefficients.dtype)
    sums[starts] = coefficients
    sums = _butterflies(sums, 2, _f_stage)
    sets = np.arange(1 << n)
    return FlagVector._from_array(n, sums[(sets ^ sets >> 1) & (len(sums) - 1)])


# -- the cd-index -------------------------------------------------------


def cd_from_l(table: LVector) -> CdPolynomial:
    """Assemble the cd polynomial from an L table.

    With a_Q = 2^n * L_Q the numerators, P(Q) the pair-start mask of an
    even set Q (module docstring) and r the number of d's of a word w,

        [w] = (-2)^r * 2^(-n) * sum of a_Q over P(Q) containing P(w)
            = (-1)^r * Z[P(w)] / 2^(n - r),

    where Z is the superset sum of a moved onto the pair-start masks:
    a_Q sits at P(Q) and every other mask holds 0.  Z is one butterfly,
    ``low += high`` over the n - 1 bits a pair start can have, under the
    growth-2 rule of :func:`_butterflies`, which holds because each entry
    is at every stage a sum of distinct numerators.  Z is read at the
    words' masks in the order of :func:`cd_words`, so the terms come out
    in that order.

    Raises :class:`NotCdExpressibleError` for the first rank set in mask
    order that is not even and has a nonzero L value, and an internal
    error for the first word whose coefficient fails to come out integral
    (impossible for consistent input): its low n - r bits of Z are not 0.
    """
    n = table.n
    words, starts, ds = _cd_word_starts(n)
    numerators = table.array
    # the even sets, in the order of their words
    sets = starts | starts << 1
    even = numerators[sets]
    if np.count_nonzero(even) != np.count_nonzero(numerators):
        odd = numerators.copy()
        odd[sets] = 0
        mask = int(np.flatnonzero(odd)[0])
        raise NotCdExpressibleError(
            f"L value {Fraction(int(odd[mask]), 1 << n)} on non-even rank set "
            f"{subset_label(mask)}",
            mask,
        )
    sums = np.zeros(1 << max(n - 1, 0), dtype=numerators.dtype)
    sums[starts] = even
    sums = _butterflies(sums, 2, _superset_stage)[starts].tolist()
    terms = {}
    for word, d, z in zip(words, ds, sums):
        if z & ((1 << (n - d)) - 1):
            raise RuntimeError(
                f"internal error: coefficient of {word!r} is non-integral "
                f"({Fraction((-2) ** d * z, 1 << n)})"
            )
        if z:
            terms[word] = -(z >> (n - d)) if d & 1 else z >> (n - d)
    return CdPolynomial(n, terms)


def cd_index(poset: RankedPoset) -> CdPolynomial:
    """The cd-index of a poset whose flag data admits one.

    Exists for all Eulerian posets; non-Eulerian posets typically fail with
    :class:`NotCdExpressibleError` (e.g. any chain of rank at least 2).
    """
    return cd_from_l(l_vector(flag_vector(poset)))
