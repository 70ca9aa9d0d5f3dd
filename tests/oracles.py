"""Brute-force reference implementations used to pin expected values.

Everything here is written for clarity, not speed: transitive closures as
dict-of-set fixpoints, chain counts by explicit enumeration, transforms as
literal double sums.  The library must agree with these on every poset
small enough to enumerate.  ``random_graded`` makes such posets.

``replicate_interval_stepwise`` and ``horizontal_double_stepwise`` are the
level-copying constructions as the library first wrote them: replication
branch by branch, and the double as one replication per proper level.
``dual_pairs``, ``join_pairs`` and ``glue_pairs`` are the other
constructions as first written.  All of them compute covers as Python
sets of tuples, the representation the library's cover arrays replaced.
``dp_poset``, ``lemma2_glued`` and ``lemma3_glued`` build the paper's
families from them by direct construction calls, as the library did
before it defined them as expression trees.

``assert_same_poset`` compares a poset with a reference in every form.

``ranks_bitwise``, ``runs_bitwise`` and ``reverse_bitwise`` read masks one
bit at a time by shifting, as the library first did.

``_Parser`` and ``parse_expression`` are the expression parser as the
library first wrote it, one hand-written branch per constructor.
"""

from fractions import Fraction
from itertools import combinations

import numpy as np

from cdposets import RankedPoset, chain, glue
from cdposets import validate_even_interval_system
from cdposets.constructions import joined_sizes, replicated_sizes
from cdposets.errors import BudgetError, NotCdExpressibleError
from cdposets.exprs import ExpressionError, Node, _Token, _tokenize
from cdposets.flags import CdPolynomial, cd_support, cd_words
from cdposets.subsets import (
    evenly_contains,
    full_mask,
    is_even_set,
    maximal_runs,
    ranks_from_mask,
    subset_label,
)


def assert_same_poset(got, want, what):
    """``got`` is ``want`` in every form the library offers: the covers
    view, the dict, equality and hash, and both validate clean; its cover
    arrays are read-only int64 (k, 2) arrays."""
    assert got.covers == want.covers, what
    assert got.to_dict() == want.to_dict(), what
    assert got == want and hash(got) == hash(want), what
    assert got.validate() == want.validate() == [], what
    for cs in got.cover_arrays:
        assert cs.dtype == np.int64 and cs.shape[1:] == (2,) and not cs.flags.writeable, what


def random_graded(rng, level_sizes):
    """A graded poset with the given level sizes and random covers, every
    element covering and covered by at least one; ``rng`` is a numpy
    Generator."""
    covers = []
    for lo, hi in zip(level_sizes, level_sizes[1:]):
        pairs = {(int(rng.integers(lo)), j) for j in range(hi)}
        pairs |= {(i, int(rng.integers(hi))) for i in range(lo)}
        pairs |= {(i, j) for i in range(lo) for j in range(hi) if rng.random() < 0.3}
        covers.append(pairs)
    return RankedPoset(len(level_sizes) - 1, level_sizes, covers)


def closure(level_sizes, covers):
    """Strict order relation as a set of ((r1, i), (r2, j)) pairs."""
    above = {}
    for r, layer in enumerate(covers):
        for i, j in layer:
            above.setdefault((r, i), set()).add((r + 1, j))
    rel = set()
    for r in range(len(level_sizes)):
        for i in range(level_sizes[r]):
            frontier = {(r, i)}
            seen = set()
            while frontier:
                node = frontier.pop()
                for nxt in above.get(node, ()):
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.add(nxt)
            for other in seen:
                rel.add(((r, i), other))
    return rel


def maximal_chains(level_sizes, covers):
    """All maximal chains as tuples of per-rank indices."""
    chains = [(i,) for i in range(level_sizes[0])]
    for layer in covers:
        nxt = []
        for chain in chains:
            for i, j in layer:
                if i == chain[-1]:
                    nxt.append(chain + (j,))
        chains = nxt
    return chains


def flag_counts(level_sizes, covers):
    """Map from frozenset of proper ranks to the number of chains hitting
    exactly those ranks (plus bottom and top)."""
    rel = closure(level_sizes, covers)
    rank = len(level_sizes) - 1
    n = rank - 1
    bottoms = [(0, i) for i in range(level_sizes[0])]
    tops = [(rank, i) for i in range(level_sizes[rank])]
    assert len(bottoms) == len(tops) == 1
    out = {}
    for size in range(n + 1):
        for ranks in combinations(range(1, n + 1), size):
            count = 0
            partial = [[bottoms[0]]]
            for r in ranks:
                grown = []
                for chain in partial:
                    for i in range(level_sizes[r]):
                        if (chain[-1], (r, i)) in rel:
                            grown.append(chain + [(r, i)])
                partial = grown
            for chain in partial:
                if (chain[-1], tops[0]) in rel or chain[-1] == bottoms[0]:
                    count += 1
            out[frozenset(ranks)] = count
    return out


def eulerian(level_sizes, covers):
    """True iff every closed interval balances even and odd ranks."""
    return first_violation(level_sizes, covers) is None


def first_violation(level_sizes, covers):
    """The first unbalanced interval [x, y] with rank(y) >= rank(x) + 2, in
    (rank_low, rank_high, index_low, index_high) order, as that tuple
    followed by its even and odd counts; None when there is none."""
    rel = closure(level_sizes, covers)
    above = {}
    below = {}
    for x, y in rel:
        above.setdefault(x, set()).add(y)
        below.setdefault(y, set()).add(x)
    rank = len(level_sizes) - 1
    for r1 in range(rank + 1):
        for r2 in range(r1 + 2, rank + 1):
            for i in range(level_sizes[r1]):
                for j in range(level_sizes[r2]):
                    x, y = (r1, i), (r2, j)
                    if (x, y) not in rel:
                        continue
                    between = [x, y, *(above[x] & below[y])]
                    even = sum(1 for z in between if (z[0] - r1) % 2 == 0)
                    odd = len(between) - even
                    if even != odd:
                        return (r1, i, r2, j, even, odd)
    return None


def interval_sums(level_sizes, covers, r1, r2, weights):
    """For each x of level r1 and y of level r2, the sum of
    ``weights[rank z]`` over the closed interval [x, y], 0 where x and y
    do not compare, as a list of rows."""
    rel = closure(level_sizes, covers)
    out = []
    for i in range(level_sizes[r1]):
        row = []
        for j in range(level_sizes[r2]):
            x, y = (r1, i), (r2, j)
            between = [z for z in rel if z[0] == x and (z[1], y) in rel]
            row.append(
                weights[r1] + weights[r2] + sum(weights[z[1][0]] for z in between)
                if (x, y) in rel
                else 0
            )
        out.append(row)
    return out


def h_from_f(f, n):
    """Flag h by the literal alternating sum over subsets."""
    out = {}
    for s in subsets(n):
        total = 0
        for t in subsets(n):
            if t <= s:
                total += (-1) ** len(s - t) * f[t]
        out[s] = total
    return out


def l_from_f(f, n):
    """L values as 2^-n times the signed sum of flag h over all subsets."""
    h = h_from_f(f, n)
    out = {}
    for q in subsets(n):
        total = sum((-1) ** len(s & q) * h[s] for s in subsets(n))
        out[q] = Fraction(total, 2**n)
    return out


def subsets(n):
    for size in range(n + 1):
        for combo in combinations(range(1, n + 1), size):
            yield frozenset(combo)


def ab_words_of_cd(word):
    """Expand a cd word into its ab words with multiplicity: c = a + b,
    d = ab + ba."""
    results = {"": 1}
    for ch in word:
        grown = {}
        pieces = ("a", "b") if ch == "c" else ("ab", "ba")
        for prefix, mult in results.items():
            for piece in pieces:
                grown[prefix + piece] = grown.get(prefix + piece, 0) + mult
        results = grown
    return results


def ab_of_cd(poly):
    """The ab polynomial of a cd polynomial as {mask of the b positions:
    coefficient}, word by word through ``ab_words_of_cd``."""
    total = {}
    for word, coeff in poly.terms.items():
        for ab_word, mult in ab_words_of_cd(word).items():
            mask = sum(1 << k for k, ch in enumerate(ab_word) if ch == "b")
            total[mask] = total.get(mask, 0) + coeff * mult
    return {mask: c for mask, c in total.items() if c}


def is_even_runs(ranks):
    """Check that a set of ranks splits into runs of even length."""
    ordered = sorted(ranks)
    run = 0
    prev = None
    for s in ordered:
        if prev is not None and s == prev + 1:
            run += 1
        else:
            if run % 2:
                return False
            run = 1
        prev = s
    return run % 2 == 0


def ranks_bitwise(mask):
    """Ranks of a nonnegative mask, read one bit at a time by shifting."""
    ranks = []
    s = 1
    while mask:
        if mask & 1:
            ranks.append(s)
        mask >>= 1
        s += 1
    return ranks


def runs_bitwise(mask):
    """Maximal runs of a mask, grown rank by rank from ``ranks_bitwise``."""
    runs = []
    for s in ranks_bitwise(mask):
        if runs and runs[-1][1] == s - 1:
            runs[-1] = (runs[-1][0], s)
        else:
            runs.append((s, s))
    return runs


def reverse_bitwise(mask, n):
    """The flip s -> n + 1 - s of a subset of [1, n], bit by bit."""
    return sum(1 << (n - s) for s in ranks_bitwise(mask))


def classify(word):
    """Independent classifier: literal pattern matching on the word."""
    import re

    if re.fullmatch(r"c*", word):
        return "Part2"
    if re.fullmatch(r"c*dc*", word):
        i = word.index("d")
        j = len(word) - i - 1
        return "Part1a" if min(i, j) <= 1 else "Part3"
    if re.fullmatch(r"c*d(cd)+c*", word):
        return "Part1b"
    return "Part3"


def f_form(f, n, t_ranks, v_ranks):
    """The flag-vector side of the interval inequality, by direct sums."""
    t = frozenset(t_ranks)
    s = frozenset(range(1, n + 1)) - frozenset(v_ranks)
    total = 0
    for size in range(len(t) + 1):
        for sub in combinations(sorted(t), size):
            total += (-2) ** (len(t) - size) * f[s | frozenset(sub)]
    return total


def check_inequality_pair_scan(n, t_mask, v_mask):
    """Validity of (T, V) for the interval inequality by scanning the
    maximal runs of V; raises ValueError like ``inequality_f_form``."""
    if v_mask & ~full_mask(n):
        raise ValueError(f"V = {subset_label(v_mask)} not within [1, {n}]")
    if t_mask & ~v_mask:
        raise ValueError(
            f"T = {subset_label(t_mask)} not within V = {subset_label(v_mask)}"
        )
    for a, b in maximal_runs(v_mask):
        run = full_mask(b) & ~full_mask(a - 1)
        if bin(run & t_mask).count("1") > 1:
            raise ValueError(
                f"maximal run [{a}, {b}] of V meets T more than once"
            )


def inequality_pairs_stack(n):
    """Every valid (T, V) pair by a depth-first stack over the runs of each
    V, in the order ``inequality_pairs`` must reproduce."""
    for v_mask in range(1 << n):
        runs = [full_mask(b) & ~full_mask(a - 1) for a, b in maximal_runs(v_mask)]
        choices = [[0]]
        for run in runs:
            choices.append([0] + [1 << (s - 1) for s in ranks_from_mask(run)])
        stack = [(0, 0)]
        while stack:
            depth, t_mask = stack.pop()
            if depth == len(runs):
                yield t_mask, v_mask
                continue
            for bit in choices[depth + 1]:
                stack.append((depth + 1, t_mask | bit))


def limit_l(n, intervals):
    """Alternating subfamily-union counts, straight from the definition."""
    table = {}
    k = len(intervals)
    for size in range(k + 1):
        for combo in combinations(range(k), size):
            union = frozenset()
            for idx in combo:
                a, b = intervals[idx]
                union |= frozenset(range(a, b + 1))
            table[union] = table.get(union, 0) + (-1) ** size
    return table


def cd_from_l_scan(table):
    """cd polynomial of an L table by scanning, for every cd word, all
    nonzero L_Q for the Q evenly containing its support, in Fractions;
    raises like ``cd_from_l``."""
    nonzero = table.nonzero()
    for mask, value in nonzero:
        if not is_even_set(mask):
            raise NotCdExpressibleError(
                f"L value {value} on non-even rank set {subset_label(mask)}", mask
            )
    terms = {}
    for word in cd_words(table.n):
        supp = cd_support(word)
        total = sum(
            (value for mask, value in nonzero if evenly_contains(supp, mask)),
            start=Fraction(0),
        )
        coeff = (-2) ** word.count("d") * total
        if coeff.denominator != 1:
            raise RuntimeError(
                f"internal error: coefficient of {word!r} is non-integral ({coeff})"
            )
        terms[word] = int(coeff)
    return CdPolynomial(table.n, terms)


def replicate_interval_stepwise(poset, low, high, copies, *, budget=None):
    """Copies t of element i at a replicated level of old size L at
    t * L + i, with one branch per kind of cover level."""
    poset._require_valid()
    sizes = replicated_sizes(poset.level_sizes, low, high, copies, budget=budget)
    old = poset.level_sizes
    covers = []
    for r in range(poset.rank):
        cs = poset.covers[r]
        if r < low - 1 or r > high:
            covers.append(cs)
        elif r == low - 1:
            covers.append(
                {(i, t * old[r + 1] + j) for i, j in cs for t in range(copies)}
            )
        elif r < high:
            covers.append(
                {(t * old[r] + i, t * old[r + 1] + j) for i, j in cs for t in range(copies)}
            )
        else:  # r == high, leaving the replicated range
            covers.append(
                {(t * old[r] + i, j) for i, j in cs for t in range(copies)}
            )
    return RankedPoset(poset.rank, sizes, covers)


def horizontal_double_stepwise(poset, *, budget=None):
    """Two copies of each proper level, one replication at a time; a
    rank-1 poset is returned as it is, unvalidated.  A replication's
    budget trip is reported under the double's name."""
    out = poset
    try:
        for r in range(1, poset.rank):
            out = replicate_interval_stepwise(out, r, r, 2, budget=budget)
    except BudgetError as exc:
        raise BudgetError(str(exc).replace("replicate_interval", "horizontal_double")) from None
    return out


def dual_pairs(poset):
    """The dual as the library first wrote it: levels reversed and every
    cover pair transposed, as Python sets of tuples."""
    poset._require_valid()
    covers = [{(j, i) for i, j in poset.covers[poset.rank - r - 1]} for r in range(poset.rank)]
    return RankedPoset(poset.rank, poset.level_sizes[::-1], covers)


def join_pairs(left, right, *, budget=None):
    """The join as the library first wrote it: the covers below the top of
    ``left``, all coatom-atom pairs, then the covers above the bottom of
    ``right``, as Python sets of tuples."""
    left._require_valid()
    right._require_valid()
    sizes = joined_sizes(left.level_sizes, right.level_sizes, budget=budget)
    middle = {
        (x, y)
        for x in range(left.level_sizes[left.rank - 1])
        for y in range(right.level_sizes[1])
    }
    covers = [*left.covers[: left.rank - 1], middle, *right.covers[1:]]
    return RankedPoset(left.rank + right.rank - 1, sizes, covers)


def glue_pairs(parts):
    """The layout of ``glue(parts)`` as the library first wrote it, as
    Python sets of tuples, for parts that glue consistently: the shared
    block of each glued rank first, then the other parts' levels in part
    order."""
    rank = parts[0][0].rank
    sets = [set(ranks) for _, ranks in parts]
    offsets = [[0] * (rank + 1) for _ in parts]
    sizes = []
    for r in range(rank + 1):
        shared = [p.level_sizes[r] for (p, _), gs in zip(parts, sets) if r in gs]
        total = shared[0] if shared else 0
        for k, (p, _) in enumerate(parts):
            if r not in sets[k]:
                offsets[k][r] = total
                total += p.level_sizes[r]
        sizes.append(total)
    covers = [set() for _ in range(rank)]
    for k, (p, _) in enumerate(parts):
        for r in range(rank):
            lo, hi = offsets[k][r], offsets[k][r + 1]
            covers[r].update((lo + i, hi + j) for i, j in p.covers[r])
    return RankedPoset(rank, sizes, covers)


def dp_poset(n, intervals, copies, *, require_even=True, budget=None):
    """Replicate each interval of chain(n + 1) into copies + 1 blocks, then
    double, checking the arguments first."""
    if copies < 1:
        raise ValueError(f"copies must be at least 1, got {copies}")
    if require_even:
        diags = validate_even_interval_system(n, intervals)
        if diags:
            raise ValueError("bad interval system: " + "; ".join(diags))
    else:
        for a, b in intervals:
            if not 1 <= a <= b <= n:
                raise ValueError(f"interval [{a}, {b}] not within [1, {n}]")
    out = chain(n + 1, budget=budget)
    for a, b in intervals:
        out = replicate_interval_stepwise(out, a, b, copies + 1, budget=budget)
    return horizontal_double_stepwise(out, budget=budget)


def lemma2_glued(n, copies, *, budget=None):
    """The glued poset whose double is lemma2(n, copies)."""
    if n < 7 or n % 2 == 0:
        raise ValueError(f"rank parameter must be odd and at least 7, got {n}")
    if copies < 1:
        raise ValueError(f"copies must be at least 1, got {copies}")
    base = chain(n + 1, budget=budget)
    m = copies
    part1 = base
    for a, b in [(n - 1, n), (4, n - 2), (3, n - 3), (1, 2)]:
        part1 = replicate_interval_stepwise(part1, a, b, m + 1, budget=budget)
    part2 = replicate_interval_stepwise(base, 4, n, m + 1, budget=budget)
    part2 = replicate_interval_stepwise(part2, 3, n - 2, m**2, budget=budget)
    part2 = replicate_interval_stepwise(part2, 1, n - 3, m + 1, budget=budget)
    part3 = replicate_interval_stepwise(base, 1, n, m**4, budget=budget)
    ends = {0, 1, 2, n - 1, n, n + 1}
    return glue(
        [(part1, ends), (part2, ends), (part3, {0, n + 1})], budget=budget
    )


def lemma3_glued(copies, *, budget=None):
    """The glued poset whose double is lemma3(copies)."""
    if copies < 1:
        raise ValueError(f"copies must be at least 1, got {copies}")
    base = chain(7, budget=budget)
    part1 = replicate_interval_stepwise(base, 2, 6, copies, budget=budget)
    part1 = replicate_interval_stepwise(part1, 1, 2, copies, budget=budget)
    part2 = replicate_interval_stepwise(base, 5, 6, copies, budget=budget)
    part2 = replicate_interval_stepwise(part2, 1, 5, copies, budget=budget)
    return glue([(part1, {0, 1, 6, 7}), (part2, {0, 1, 6, 7})], budget=budget)


class _Parser:
    def __init__(self, text: str):
        self.tokens = list(_tokenize(text))
        self.index = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.advance()
        if tok.text != text:
            raise ExpressionError(
                f"expected {text!r}, found {tok.text or 'end of input'!r}", tok.position
            )
        return tok

    def parse_int(self) -> int:
        tok = self.advance()
        if tok.kind != "INT":
            raise ExpressionError(
                f"expected an integer, found {tok.text or 'end of input'!r}",
                tok.position,
            )
        return int(tok.text)

    def parse_int_list(self) -> list[int]:
        self.expect("[")
        out = []
        if self.peek().text != "]":
            out.append(self.parse_int())
            while self.peek().text == ",":
                self.advance()
                out.append(self.parse_int())
        self.expect("]")
        return out

    def parse_interval_list(self) -> list[tuple[int, int]]:
        self.expect("[")
        out = []
        if self.peek().text != "]":
            while True:
                pair = self.parse_int_list()
                if len(pair) != 2:
                    raise ExpressionError(
                        f"expected an interval [low, high], found {len(pair)} entries",
                        self.peek().position,
                    )
                out.append((pair[0], pair[1]))
                if self.peek().text != ",":
                    break
                self.advance()
        self.expect("]")
        return out

    def parse_expr(self) -> Node:
        tok = self.advance()
        if tok.kind != "NAME":
            raise ExpressionError(
                f"expected a constructor name, found {tok.text or 'end of input'!r}",
                tok.position,
            )
        name = tok.text
        self.expect("(")
        if name in ("chain", "boolean", "lemma3"):
            args: tuple = (self.parse_int(),)
        elif name in ("dual", "double"):
            args = (self.parse_expr(),)
        elif name == "dni":
            inner = self.parse_expr()
            nums = [self._comma_int() for _ in range(3)]
            args = (inner, *nums)
        elif name == "join":
            left = self.parse_expr()
            self.expect(",")
            args = (left, self.parse_expr())
        elif name == "lemma2":
            first = self.parse_int()
            self.expect(",")
            args = (first, self.parse_int())
        elif name == "dp":
            n = self.parse_int()
            self.expect(",")
            intervals = self.parse_interval_list()
            self.expect(",")
            args = (n, tuple(intervals), self.parse_int())
        elif name == "glue":
            self.expect("[")
            parts = [self.parse_expr()]
            while self.peek().text == ",":
                self.advance()
                parts.append(self.parse_expr())
            self.expect("]")
            self.expect(",")
            self.expect("[")
            rank_sets = [tuple(self.parse_int_list())]
            while self.peek().text == ",":
                self.advance()
                rank_sets.append(tuple(self.parse_int_list()))
            self.expect("]")
            args = (tuple(parts), tuple(rank_sets))
        else:
            raise ExpressionError(f"unknown constructor {name!r}", tok.position)
        self.expect(")")
        return Node(name, args)

    def _comma_int(self) -> int:
        self.expect(",")
        return self.parse_int()


def parse_expression(text: str) -> Node:
    parser = _Parser(text)
    node = parser.parse_expr()
    trailing = parser.peek()
    if trailing.kind != "END":
        raise ExpressionError(
            f"unexpected trailing input {trailing.text!r}", trailing.position
        )
    return node
