"""A tiny expression language for building posets.

Grammar (whitespace-insensitive)::

    expr := chain(INT) | boolean(INT) | dual(expr) | double(expr)
          | dni(expr, INT, INT, INT)          # interval low, high, copies
          | join(expr, expr)
          | glue([expr, ...], [[INT, ...], ...])
          | dp(INT, [[INT, INT], ...], INT)   # n, intervals, copies
          | lemma2(INT, INT) | lemma3(INT)

Parse errors carry the byte offset of the offending token.

:func:`build_poset` evaluates an expression to a :class:`RankedPoset`.
The paper's families are defined only here, as trees of the other kinds
that both evaluators expand first: ``dp(n, I, N)`` is chain(n + 1), then
dni(., a, b, N + 1) for each interval [a, b] of I, then double;
``lemma2`` and ``lemma3`` are the doubles of glues of replicated chains.

:func:`flag_vector_of` computes the flag vector from the tree instead,
carrying only level sizes, the number of maximal chains and the 2^n
table.  With n the number of proper ranks and masks as in
:mod:`cdposets.subsets`:

* ``chain``: f_S = 1 for every S.
* ``boolean(k)``: f_S = k! / (s_1! (s_2 - s_1)! ... (k - s_j)!) for
  S = {s_1 < ... < s_j}.
* ``dual``: f_S becomes f of the reversed set, a bit reversal of the mask.
* ``double``: f_S becomes 2^|S| f_S.
* ``dni(P, low, high, N)``: f_S becomes N f_S when S meets [low, high],
  and is unchanged otherwise.
* ``join(P, Q)``: f_S = f^P of the low n_P bits of S times f^Q of the
  rest, so the table is the outer product of the two.
* ``glue``: built with :func:`build_poset` and passed to
  :func:`~cdposets.flags.flag_vector`, the only node built; the nodes
  above it (the doubles of ``lemma2`` and ``lemma3``) use the identities.

The identities multiply the maximal-chain counts of the children by
factors of at least 1 (N, 2^n, the other side of a join), so no node
has more maximal chains than the root.  Every entry of a node's table,
and every intermediate product that computes it, is at most the count
of that node.  So when the root's count is below ``flags._INT64_SAFE``
all tables are int64; otherwise they are Python integers (object
arrays).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .constructions import (
    Interval,
    doubled_sizes,
    glue,
    horizontal_double,
    join,
    joined_sizes,
    replicate_interval,
    replicated_sizes,
    validate_even_interval_system,
)
from .flags import _INT64_SAFE, FlagVector, check_flag_ranks, flag_vector
from .poset import RankedPoset, boolean, boolean_sizes, chain, chain_sizes


class ExpressionError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


@dataclass(frozen=True)
class Node:
    kind: str
    args: tuple


@dataclass(frozen=True)
class _Token:
    kind: str  # NAME, INT, PUNCT, END
    text: str
    position: int


def _tokenize(text: str) -> Iterator[_Token]:
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
        elif ch in "()[],":
            yield _Token("PUNCT", ch, pos)
            pos += 1
        elif ch.isdigit():
            start = pos
            while pos < len(text) and text[pos].isdigit():
                pos += 1
            yield _Token("INT", text[start:pos], start)
        elif ch.isalpha() or ch == "_":
            start = pos
            while pos < len(text) and (text[pos].isalnum() or text[pos] == "_"):
                pos += 1
            yield _Token("NAME", text[start:pos], start)
        else:
            raise ExpressionError(f"unexpected character {ch!r}", pos)
    yield _Token("END", "", len(text))


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


def build_poset(node: Node, *, budget: int | None = None) -> RankedPoset:
    """Evaluate a parsed expression.  Domain errors (bad ranges, glue
    mismatches, budget) surface as the usual exceptions from the
    construction functions."""
    node = _expand(node)
    kind, args = node.kind, node.args
    if kind == "chain":
        return chain(args[0], budget=budget)
    if kind == "boolean":
        return boolean(args[0], budget=budget)
    if kind == "dual":
        return build_poset(args[0], budget=budget).dual()
    if kind == "double":
        return horizontal_double(build_poset(args[0], budget=budget), budget=budget)
    if kind == "dni":
        inner, low, high, copies = args
        return replicate_interval(
            build_poset(inner, budget=budget), low, high, copies, budget=budget
        )
    if kind == "join":
        return join(
            build_poset(args[0], budget=budget),
            build_poset(args[1], budget=budget),
            budget=budget,
        )
    if kind == "glue":
        parts, rank_sets = args
        if len(parts) != len(rank_sets):
            raise ValueError(
                f"glue got {len(parts)} parts but {len(rank_sets)} rank sets"
            )
        built = [build_poset(part, budget=budget) for part in parts]
        return glue(list(zip(built, rank_sets)), budget=budget)
    raise ValueError(f"unknown node kind {kind!r}")


# -- the paper's families as trees of the primitive kinds ----------------


def _expand(node: Node) -> Node:
    """The primitive tree of a ``dp``, ``lemma2`` or ``lemma3`` node, after
    that family's argument checks in their order; other nodes unchanged."""
    if node.kind == "dp":
        return _dp_tree(*node.args)
    if node.kind == "lemma2":
        return Node("double", (_lemma2_glue(*node.args),))
    if node.kind == "lemma3":
        return Node("double", (_lemma3_glue(*node.args),))
    return node


def _replicated_chain(rank: int, replications) -> Node:
    """chain(rank), then dni(., low, high, copies) for each (low, high, copies)."""
    tree = Node("chain", (rank,))
    for low, high, copies in replications:
        tree = Node("dni", (tree, low, high, copies))
    return tree


def _dp_tree(n: int, intervals, copies: int, require_even: bool = True) -> Node:
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
    replications = [(a, b, copies + 1) for a, b in intervals]
    return Node("double", (_replicated_chain(n + 1, replications),))


def _lemma2_glue(n: int, copies: int) -> Node:
    """The glue below the double of ``lemma2(n, copies)``."""
    if n < 7 or n % 2 == 0:
        raise ValueError(f"rank parameter must be odd and at least 7, got {n}")
    if copies < 1:
        raise ValueError(f"copies must be at least 1, got {copies}")
    m = copies
    parts = (
        _replicated_chain(
            n + 1, [(n - 1, n, m + 1), (4, n - 2, m + 1), (3, n - 3, m + 1), (1, 2, m + 1)]
        ),
        _replicated_chain(n + 1, [(4, n, m + 1), (3, n - 2, m**2), (1, n - 3, m + 1)]),
        _replicated_chain(n + 1, [(1, n, m**4)]),
    )
    ends = (0, 1, 2, n - 1, n, n + 1)
    return Node("glue", (parts, (ends, ends, (0, n + 1))))


def _lemma3_glue(copies: int) -> Node:
    """The glue below the double of ``lemma3(copies)``."""
    if copies < 1:
        raise ValueError(f"copies must be at least 1, got {copies}")
    parts = (
        _replicated_chain(7, [(2, 6, copies), (1, 2, copies)]),
        _replicated_chain(7, [(5, 6, copies), (1, 5, copies)]),
    )
    return Node("glue", (parts, ((0, 1, 6, 7), (0, 1, 6, 7))))


def dp_poset(
    n: int,
    intervals: Sequence[Interval],
    copies: int,
    *,
    require_even: bool = True,
    budget: int | None = None,
) -> RankedPoset:
    """Replicate each listed interval of the chain of rank n + 1 into
    ``copies + 1`` disjoint copies and double the result.

    ``copies`` is the growth parameter of the family: for a valid even
    interval system of k intervals the result is Eulerian with
    2^n * (copies + 1)^k maximal chains, and for the single system
    {[1, n]} the cd-index is (copies + 1) c^n - copies (cc - 2d)^{n/2},
    so copies = 0 would be the doubled chain.  Set ``require_even=False``
    to experiment with systems that fail validation.
    """
    return build_poset(_dp_tree(n, intervals, copies, require_even), budget=budget)


def lemma2_poset(n: int, copies: int, *, budget: int | None = None) -> RankedPoset:
    """Eulerian poset of rank n + 1 (n odd, at least 7) whose cd-index has
    coefficient 4 * (copies^2 - copies^4) on the word d c^(n-4) d.

    Three replicated chains glued along their outer levels, then doubled.
    """
    return build_poset(Node("lemma2", (n, copies)), budget=budget)


def lemma3_poset(copies: int, *, budget: int | None = None) -> RankedPoset:
    """Eulerian poset of rank 7 whose cd-index has coefficient
    -2 * (copies - 1)^2 on the word c c d c c.

    Two replicated chains glued at ranks 0, 1, 6, 7, then doubled.
    """
    return build_poset(Node("lemma3", (copies,)), budget=budget)


# -- flag vectors from the tree ------------------------------------------

# (level sizes, maximal chains, table): table(dtype) computes the 2^n flag
# table in that dtype, n = len(level sizes) - 2
_Plan = tuple[list[int], int, Callable[[type], np.ndarray]]


def flag_vector_of(node: Node, *, budget: int | None = None) -> FlagVector:
    """``flag_vector(build_poset(node, budget=budget))`` without building
    the poset, except under ``glue`` nodes.

    A first walk carries only level sizes and the number of maximal chains
    and raises exactly what :func:`build_poset` would, in its order; then
    the flag rank limit is checked, and only then are the tables computed
    by the identities in the module docstring.
    """
    return _sized_flag_vector(node, budget)[1]


def _sized_flag_vector(node: Node, budget: int | None) -> tuple[list[int], FlagVector]:
    """The level sizes of ``build_poset(node)`` and :func:`flag_vector_of`,
    from one walk of the tree."""
    sizes, chains, table = _plan(node, budget)
    n = len(sizes) - 2
    check_flag_ranks(n)
    return sizes, FlagVector(n, table(np.int64 if chains < _INT64_SAFE else object).tolist())


def _plan(node: Node, budget: int | None) -> _Plan:
    node = _expand(node)
    kind, args = node.kind, node.args
    if kind == "chain":
        sizes = chain_sizes(args[0], budget=budget)
        return sizes, 1, lambda dtype: np.ones(1 << (args[0] - 1), dtype)
    if kind == "boolean":
        k = args[0]
        sizes = boolean_sizes(k, budget=budget)
        return sizes, math.factorial(k), lambda dtype: _boolean_table(k, dtype)
    if kind == "dual":
        sizes, chains, inner = _plan(args[0], budget)
        return sizes[::-1], chains, lambda dtype: _reversed(inner(dtype))
    if kind == "double":
        return _doubled(_plan(args[0], budget), budget)
    if kind == "dni":
        inner, low, high, copies = args
        return _replicated(_plan(inner, budget), low, high, copies, budget)
    if kind == "join":
        left_sizes, left_chains, left = _plan(args[0], budget)
        right_sizes, right_chains, right = _plan(args[1], budget)
        return (
            joined_sizes(left_sizes, right_sizes, budget=budget),
            left_chains * right_chains,
            lambda dtype: np.outer(right(dtype), left(dtype)).ravel(),
        )
    # glue, the only node built (unknown kinds: build_poset rejects them)
    poset = build_poset(node, budget=budget)
    return (
        list(poset.level_sizes),
        poset.count_maximal_chains(),
        lambda dtype: np.array(flag_vector(poset).values, dtype),
    )


def _doubled(plan: _Plan, budget: int | None) -> _Plan:
    sizes, chains, inner = plan
    n = len(sizes) - 2

    def table(dtype):
        weights = np.ones(1, dtype)  # 2^|S|
        for _ in range(n):
            weights = np.concatenate([weights, 2 * weights])
        return inner(dtype) * weights

    return doubled_sizes(sizes, budget=budget), chains << n, table


def _replicated(plan: _Plan, low: int, high: int, copies: int, budget: int | None) -> _Plan:
    sizes, chains, inner = plan
    sizes = replicated_sizes(sizes, low, high, copies, budget=budget)

    def table(dtype):
        out = inner(dtype)
        interval = (1 << high) - (1 << (low - 1))
        out[(np.arange(len(out)) & interval) != 0] *= copies
        return out

    # every maximal chain runs through the replicated levels
    return sizes, chains * copies, table


def _boolean_table(k: int, dtype) -> np.ndarray:
    """f_S = k! / (s_1! (s_2 - s_1)! ... (k - s_j)!) for S = {s_1 < ... < s_j}."""
    top = np.zeros(1, np.int64)  # highest rank of each mask, 0 for the empty one
    below = np.ones(1, dtype)  # chains from the bottom to one element of rank top
    for s in range(1, k):
        # the masks whose highest rank is s extend the earlier ones by s
        binom = np.array([math.comb(s, t) for t in range(s)], dtype)
        below = np.concatenate([below, below * binom[top]])
        top = np.concatenate([top, np.full(len(top), s)])
    return below * np.array([math.comb(k, t) for t in range(k)], dtype)[top]


def _reversed(table: np.ndarray) -> np.ndarray:
    """The table indexed by bit-reversed masks: the flag table of the dual."""
    n = len(table).bit_length() - 1
    return table.reshape([2] * n).transpose().ravel()
