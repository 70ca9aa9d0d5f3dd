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
:func:`flag_vector_of` computes its flag vector from the tree instead,
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
* ``dp(n, I, N)``: chain(n + 1), then dni(., a, b, N + 1) for each
  interval [a, b] of I, then double.
* ``glue``, ``lemma2``, ``lemma3``: built with :func:`build_poset` and
  passed to :func:`~cdposets.flags.flag_vector`; nodes above them still
  use the identities.

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
from typing import Callable, Iterator

import numpy as np

from .constructions import (
    check_dp_arguments,
    doubled_sizes,
    dp_poset,
    glue,
    horizontal_double,
    join,
    joined_sizes,
    lemma2_poset,
    lemma3_poset,
    replicate_interval,
    replicated_sizes,
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
    if kind == "dp":
        n, intervals, copies = args
        return dp_poset(n, list(intervals), copies, budget=budget)
    if kind == "lemma2":
        return lemma2_poset(args[0], args[1], budget=budget)
    if kind == "lemma3":
        return lemma3_poset(args[0], budget=budget)
    raise ValueError(f"unknown node kind {kind!r}")


# -- flag vectors from the tree ------------------------------------------

# (level sizes, maximal chains, table): table(dtype) computes the 2^n flag
# table in that dtype, n = len(level sizes) - 2
_Plan = tuple[list[int], int, Callable[[type], np.ndarray]]


def flag_vector_of(node: Node, *, budget: int | None = None) -> FlagVector:
    """``flag_vector(build_poset(node, budget=budget))`` without building
    the poset, except under ``glue``, ``lemma2`` and ``lemma3`` nodes.

    A first walk carries only level sizes and the number of maximal chains
    and raises exactly what :func:`build_poset` would, in its order; then
    the flag rank limit is checked, and only then are the tables computed
    by the identities in the module docstring.
    """
    sizes, chains, table = _plan(node, budget)
    n = len(sizes) - 2
    check_flag_ranks(n)
    return FlagVector(n, table(np.int64 if chains < _INT64_SAFE else object).tolist())


def _plan(node: Node, budget: int | None) -> _Plan:
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
    if kind == "dp":
        n, intervals, copies = args
        check_dp_arguments(n, intervals, copies)
        plan = _plan(Node("chain", (n + 1,)), budget)
        for low, high in intervals:
            plan = _replicated(plan, low, high, copies + 1, budget)
        return _doubled(plan, budget)
    # glue, lemma2 and lemma3 (and unknown kinds, which build_poset rejects)
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
