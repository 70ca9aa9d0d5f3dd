"""A tiny expression language for building posets.

Grammar (whitespace-insensitive)::

    expr := chain(INT) | boolean(INT) | dual(expr) | double(expr)
          | dni(expr, INT, INT, INT)          # interval low, high, copies
          | join(expr, expr)
          | glue([expr, ...], [[INT, ...], ...])
          | dp(INT, [[INT, INT], ...], INT)   # n, intervals, copies
          | lemma2(INT, INT) | lemma3(INT)

The grammar is one table, ``_GRAMMAR``: each constructor with the kinds
of its arguments, which the parser reads in order, separated by commas.
Parse errors carry the byte offset of the offending token.  Constructors
nest at most ``_MAX_DEPTH`` = 100 levels deep; the parser refuses the
first one past that at its offset.

The paper's families are defined only here, as trees of the other kinds
that the walk expands first: ``dp(n, I, N)`` is chain(n + 1), then
dni(., a, b, N + 1) for each interval [a, b] of I, then double;
``lemma2`` and ``lemma3`` are the doubles of glues of replicated chains.
The walk holds the expanded tree to the same 100 levels, so a ``dp`` of
more than 98 intervals is refused too.

One walk, ``_plan``, is the only code that dispatches on the kinds.  For
each node it checks arguments and budgets and carries level sizes, the
number of maximal chains, how to compute the 2^n flag table, how to
build the poset, how to sum over its intervals for the Eulerian test and
how its levels compare (below).  A built poset is one more leaf,
``_built_plan``: a glue whose chains can cross parts and, on the command
line, a JSON file; its table, sums and comparabilities come from the
poset.  :func:`build_poset` builds the root's poset;
:func:`flag_vector_of` computes the root's table instead
(``_Plan.flags``), and :func:`eulerian_of` tests the root
(``_Plan.eulerian``).  All raise the same errors in the same order,
because they share the walk.  With
n the number of proper ranks and masks as in :mod:`cdposets.subsets`,
the tables are:

* ``chain``: f_S = 1 for every S.
* ``boolean(k)``: f_S = k! / (s_1! (s_2 - s_1)! ... (k - s_j)!) for
  S = {s_1 < ... < s_j}.
* ``dual``: f_S becomes f of the reversed set, a bit reversal of the mask.
* ``double``: f_S becomes 2^|S| f_S.
* ``dni(P, low, high, N)``: f_S becomes N f_S when S meets [low, high],
  and is unchanged otherwise.
* ``join(P, Q)``: f_S = f^P of the low n_P bits of S times f^Q of the
  rest, so the table is the outer product of the two.
* ``glue`` of parts P_1, ..., P_p with glue sets G_1, ..., G_p: the
  glue's checks run on the parts' plans, their level sizes and their
  comparabilities between the levels that two parts glue at (``compare``,
  below), so no part is built.  When for every two parts j != k the ranks
  outside G_j ∩ G_k form one run of consecutive ranks (or none), then

      f_S = sum over nonempty J of (-1)^(|J|+1) [|J| = 1 or S ⊆ ∩_{j∈J} G_j] f_S(P_min J),

  and the walk computes it from the parts' tables as
  f_S = sum over j of [S ⊄ G_j or S ⊄ G_k for every k < j] f_S(P_j), the
  inclusion-exclusion grouped by min J.  Otherwise the glue is built,
  from its parts' posets, and its table computed by
  :func:`~cdposets.flags.flag_vector`, the only table the walk takes from
  a poset.

Why the identity holds.  A chain of the glue lies in part j when all its
elements are images of elements of P_j and each two of them compare
there.  Write P(x) for the parts an element x is an image of: all parts
that glue at its rank if x is in the shared block, else its own part
only.  For two elements x < y of adjacent ranks, y covers x in part j
exactly when j is in P(x) ∩ P(y) and y covers x at all: if the cover
comes from part k != j, then x and y are both shared by j and k, and
the glue's check makes j and k agree on comparability between those two
levels.  So a maximal chain x_0 < ... < x_r lies in part j exactly when
j is in every P(x_u).  Suppose it lies in no part.  Let a be the first
rank at which P(x_0) ∩ ... ∩ P(x_a) is empty; pick j in the intersection
up to a - 1, and k in P(x_(a-1)) ∩ P(x_a), which the cover from x_(a-1)
to x_a makes nonempty.  Then k != j, and since k is not in the
intersection up to a, k misses P(x_b) for some b < a - 1.  So b and a lie
outside G_j ∩ G_k, and a - 1 inside it: two runs.  Hence under the
condition every maximal chain of the glue lies in one part, and so does
every chain, which extends to a maximal one.  The chains with rank set S
are the union over j of the images A_j of the S-chains of P_j, and each
P_j maps injectively.  An image lies in two parts' A_j only when all its
elements are shared, so for |J| >= 2 the intersection of the A_j, j in
J, is empty unless S ⊆ ∩ G_j; then it is A_min J, since the parts agree
on comparabilities between shared levels.  Inclusion-exclusion gives
the identity.  The condition holds for ``lemma2`` and ``lemma3``, so
their glues are never built for flag data; it fails for
``glue([boolean(4), boolean(4)], [[0, 2, 4], [0, 2, 4]])``, whose chains
run from part 0's rank 1 through shared rank 2 to part 1's rank 3.

The identities multiply the maximal-chain counts of the children by
factors of at least 1 (N, 2^n, the other side of a join), and a glue has
at least as many maximal chains as each part, whose maximal chains are
distinct maximal chains of the glue; so no node has more maximal chains
than the root.  Every entry of a node's table, and every intermediate
product or partial sum that computes it, is at most the count of that
node: f_S is at most the number of maximal chains, and a glue's table
adds its parts' tables in order, each term 0 or an entry of a part,
so every partial sum is at most the glue's own f_S.  So when the root's
count is below ``_INT64_SAFE`` = 2^62 all tables are int64, whose
elementwise products and sums cannot overflow; otherwise they are Python
integers (object arrays).

The Eulerian test, :func:`eulerian_of`, also runs on the tree: the
loop of :meth:`~cdposets.poset.RankedPoset.is_eulerian`,
:func:`~cdposets.poset._eulerian_test`, runs over sums that the walk
gives.  A node's *quotient* is its poset with one representative, copy
0, of each element that ``double`` and ``dni`` copy: the quotient of
``double(Q)`` or ``dni(Q, ...)`` is that of Q, of ``dual(Q)`` its dual,
of ``join(P, Q)`` the join of theirs, and a glue is its own quotient.
For levels r1 < r2 and integer weights c on the levels, the walk gives,
for each pair u, v of the quotient at those ranks, the sum of c(rank z)
over the closed interval [u, v] of the root, each copy counted, and 0
where u and v do not compare.  With c(r) = (-1)^(r - r1) it is the even
minus the odd count of the root's interval [x, y], and with c = 1 its
size.  Each node computes its sums from its children's,
with the weights that the nodes above it have set:

* ``chain``: the sum of c(r) over r1 <= r <= r2, the same for every pair.
* ``boolean(k)``: u ⊆ v, and [u, v] is a boolean lattice of rank
  l = r2 - r1 with C(l, t) elements of relative rank t, so the sum is
  Σ_{0<=t<=l} C(l, t) c(r1 + t) for every comparable pair; no product is
  needed.
* ``double(Q)``: c becomes 2c strictly inside (r1, r2).  Every cover of
  Q goes to all the copy pairs of its levels, so copies x of u and y of v
  compare exactly when u < v in Q, and [x, y] holds x, y and both copies
  of every z of (u, v), whose ranks are proper.  For E(u, v) =
  Σ_{z∈[u,v]} (-1)^ρ(z) this is E(x, y) = 2 E_Q(u, v) - (-1)^ρ(u) - (-1)^ρ(v).
* ``dni(Q, low, high, N)``, R the levels low..high: c becomes N c on R
  when neither r1 nor r2 is in R, and stays otherwise.  Covers inside R
  stay in their copy and covers into or out of R go to every copy, so
  copies x of u and y of v compare exactly when u < v in Q and x and y
  are in one copy or one of them is outside R.  If neither end is in R,
  every copy of each z of (u, v) in R lies in [x, y], since a chain of Q
  from u through z to v lifts through any copy of z.  If x is in R, the
  elements of R above x are in x's copy, and those below y in y's copy
  if y is in R, so each such z counts once, as x and y do.
* ``dual(Q)``: the levels reverse: the sums for (r1, r2) and c are the
  transposed sums of Q for (n - r2, n - r1) and c reversed, n the rank.
* ``join(P, Q)``, P of rank a: the levels below a are P's and level r
  from a on is level r - a + 1 of Q.  Pairs on one side are that side's.
  Every u below a is below every v from a on, and [u, v] is [u, top] of
  P and [bottom, v] of Q less that top and that bottom, which are not in
  the join: P's sum to its top less c(a) plus Q's sum from its bottom
  less c(a - 1).
* ``glue`` whose chains stay in parts (the one-run condition above):
  the sums come from the parts' sums, and the glue is not built.  Level
  r of the glue is a shared block, of the parts that glue at r (when
  any does), then each other part's own block, in part order: the
  blocks that the glue's checks lay out
  (:class:`~cdposets.constructions._GlueLayout`).  For a block X of
  level r1 and a block Y of level r2, let J be the parts of both.  The
  sums on X × Y are C ⊙ Σ_{j∈J} Q_j, where the sum is 0 when J is empty:
  C is the glue's own 0/1 comparability between the two levels, its
  ``compare`` (below), and Q_j is part j's sums for the weights c_j,
  which are c but 0 on the ranks that j glues at with an earlier part
  of J.  For x in X and y in Y, three facts make this the sum over
  [x, y] of the glue:

  - *Shared blocks agree.*  Every chain from x to y extends to a maximal
    chain, which lies in one part, so in a part of J.  When J has more than one
    part, X and Y are shared blocks, every part of J glues at r1 and r2,
    and the glue's check makes them agree on comparability between those
    levels.  So x < y in the glue exactly when x < y in part min J,
    and C is 1 there: on X × Y, C is part min J's comparability.
  - *Masked weights.*  [x, y] is the union over j in J of the images A_j
    of [x, y] of part j.  An element z of A_j lies in A_k too, k in J,
    exactly when j and k both glue at rank z: then z is shared, and it
    lies in [x, y] of part k because the two parts agree between each
    two of the levels r1, rank z and r2, which both glue at; otherwise z
    is an image of part j only.  So counting each z in the first A_j that
    holds it counts z in A_j when no earlier k in J glues at rank z with
    j: the sum of c_j over A_j, which is Q_j at x, y.  The pieces are
    disjoint, so each partial sum counts elements of [x, y].
  - *Indices modulo the quotient.*  Q_j is indexed by part j's quotient,
    and element i of a level of part j copies element i mod q of it, q
    the quotient's level size: ``double`` and ``dni`` put copy a of i at
    a·L + i, L the child's level size and a multiple of q, and ``dual``
    and ``join`` keep indices.  The sums of two comparable copies are
    those of the elements they copy (below), so Q_j is read at (x mod
    its rows, y mod its columns), x and y indices in part j; a one-row
    or one-column matrix (a join's) is read at row or column 0.

  Each block's Σ_{j∈J} Q_j is written into one matrix of the glue's
  levels, one int filling its block when the Q_j are all ints, and C
  multiplies that matrix once.  When every block is 0 the glue's sums
  are the int 0, and neither matrix is made, so the Eulerian glues of
  ``lemma2`` and ``lemma3`` make none.  No part is built, and no
  product runs, on the glue's levels or the parts'.
* a built leaf, a glue whose chains can cross parts or a file: its sums
  are :meth:`~cdposets.poset.RankedPoset._interval_sums`: (c(r1) +
  c(r2)) C(r1, r2) + Σ_r c(r) C(r1, r) C(r, r2) over its 0/1
  comparability matrices, whose products count the elements of level r
  in [u, v].  These are the only matrix products, on the leaf's own
  levels.

A glue's checks and its sums read a node's comparability between two
levels r1 < r2, ``compare``: a bool matrix in the built poset's indices,
where copy a of element i of a level of L elements is at a·L + i.  It
comes from the children's by closed forms, each with its reason:

* ``chain``: a 1 × 1 one; a chain is a total order.
* ``boolean(k)``: u ⊆ v for the r1- and r2-subsets in the order of
  ``itertools.combinations``, the order :func:`~cdposets.poset.boolean`
  lists each level in; the order is inclusion.
* ``double(Q)``: Q's, tiled over the copies: every cover goes to all the
  copy pairs of its levels, so copies compare exactly when the elements
  they copy do.
* ``dni(Q, low, high, N)``: ``kron(eye(N), C)``, C Q's, when both levels
  are in [low, high], since a chain between them stays in its copy; else
  C tiled, since one end is outside the copies and a chain from it
  reaches every copy.
* ``dual(Q)``: the transpose of Q's at levels (n - r2, n - r1), n the
  rank; the dual reverses the order and the levels.
* ``join(P, Q)``, P of rank a: all ones when r1 < a <= r2, since every
  element below a is below every element from a on; otherwise that
  side's, because a chain between two levels on one side stays there.
* a one-run glue: on the block of X at r1 and Y at r2, part min J's,
  and 0 when J is empty: every chain lies in one part, which is in J,
  and the parts of J agree (*shared blocks agree*, above).
* a built leaf: the rows of level r1 carried up its cover arrays
  (:func:`~cdposets.constructions._comparability_rows`); x < y exactly
  when a saturated chain joins them.

So a poset is built only by :func:`build_poset` (and the CLI's
``build``, on the same plan) and by a glue whose chains can cross parts,
which is a built leaf.

The poset that :func:`build_poset` returns keeps the root's plan, so
:func:`~cdposets.flags.flag_vector` and
:meth:`~cdposets.poset.RankedPoset.is_eulerian` of it are
:func:`flag_vector_of` and :func:`eulerian_of` of its expression: the
matrix products run only on its built leaves.  A root that is itself a
built leaf keeps no plan, since the leaf's table and sums read its own
poset.  The plan holds no poset but its built leaves: a one-run glue
builds its poset anew when asked, and nothing above a leaf keeps what it
built.

The sum is one int for all comparable pairs of a chain or a boolean
lattice, (0, 0) among them, and every rule keeps it so except a glue, a
built leaf and a join with one of those on one side: a glue's or a
leaf's sums are a matrix of its own levels (a glue's are the int 0 when
every one is 0, one int for every pair as well).  In such a join numpy
broadcasts the side that is one int, and the other side is a column
(below, to P's one top) or a row (above, from Q's one bottom): the sum
is a matrix of one row that stands for identical rows, or of one column
for identical columns, and is never spread to the full shape, which
would take the quotient's level sizes, not the node's.
The first nonzero entry of the full matrix lies in its first row (or
column), at the same place as in the one-row (one-column) matrix, and
with the same counts.

Every partial sum is at most the size of one interval of the root in
absolute value: a side of a join less its end counts elements of [u,
v], and the weight of that end counts copies at its level inside [u, v];
a glue adds its parts' sums over disjoint pieces of [u, v].  So the sums
run in :func:`~cdposets.poset.exact_float_dtype` of the root's number of
elements below 2^53, and in Python ints from 2^53 on.  The weights need
not be exact in a leaf's own dtype (float32 cannot hold 2^40 + 1), so
each product of a built leaf is put in the root's dtype before its
weight multiplies it, into Python ints by way of int64, and so is a
glue's 0/1 comparability before it multiplies the sums of its blocks.

Why copy 0 is the first violation.  Copy a of element i of a level of L
elements sits at a·L + i (:mod:`cdposets.constructions`), so copy 0 keeps
its index in the quotient and every other copy has an index of at least
L, past every copy 0; ``dual`` and ``join`` keep indices.  By the rules,
elements of the root compare only when the quotient elements they copy
do, copy 0 of u and copy 0 of v compare whenever u < v, and the counts of
[x, y] depend only on u and v.  So at ranks (r1, r2) the unbalanced
intervals of the root are copies of the quotient's unbalanced pairs, and
each of those pairs has its copy 0 among them.  The smallest low index
is therefore copy 0 of the first unbalanced u, at u's own index, and the
smallest high index with it copy 0 of the first v: the first violation
of the root in (rank_low, rank_high, index_low, index_high) order is the
quotient's, at the same indices.
"""

from __future__ import annotations

import functools
import math
import string
from itertools import combinations
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .constructions import (
    Interval,
    _comparability_rows,
    _glue_layout,
    _glued,
    doubled_sizes,
    horizontal_double,
    join,
    joined_sizes,
    replicate_interval,
    replicated_sizes,
    validate_even_interval_system,
)
from .flags import FlagVector, check_flag_ranks, flag_vector, reversed_table
from .poset import (
    EulerianResult,
    RankedPoset,
    _eulerian_test,
    _in_dtype,
    boolean,
    boolean_sizes,
    chain,
    chain_sizes,
)


# the deepest nesting of constructors accepted, in the source and in the
# expanded tree: the parser takes up to three frames a level (glue parts)
# and the walk two, so this stays well inside Python's recursion limit of
# 1000 with room for the callers' frames
_MAX_DEPTH = 100
_TOO_DEEP = f"expression nests more than {_MAX_DEPTH} levels deep"

# below this many maximal chains at the root the tables are int64 (module docstring)
_INT64_SAFE = 2**62

# the tokenizer reads ASCII digits and names only: str.isdigit also takes
# other scripts' digits, and int() reads some of them
_NAME_START = string.ascii_letters + "_"
_NAME_CHARS = _NAME_START + string.digits


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
        elif ch in string.digits:
            start = pos
            while pos < len(text) and text[pos] in string.digits:
                pos += 1
            yield _Token("INT", text[start:pos], start)
        elif ch in _NAME_START:
            start = pos
            while pos < len(text) and text[pos] in _NAME_CHARS:
                pos += 1
            yield _Token("NAME", text[start:pos], start)
        else:
            raise ExpressionError(f"unexpected character {ch!r}", pos)
    yield _Token("END", "", len(text))


class _Parser:
    def __init__(self, text: str):
        self.tokens = list(_tokenize(text))
        self.index = 0
        self.depth = 0  # constructors open around the next token

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

    def parse_list(self, item: Callable[[], object], *, empty: bool) -> tuple:
        """``[item, ...]``, and ``[]`` when ``empty``."""
        self.expect("[")
        out = []
        if not empty or self.peek().text != "]":
            out.append(item())
            while self.peek().text == ",":
                self.advance()
                out.append(item())
        self.expect("]")
        return tuple(out)

    def parse_ints(self) -> tuple:
        return self.parse_list(self.parse_int, empty=True)

    def parse_interval(self) -> tuple:
        pair = self.parse_ints()
        if len(pair) != 2:
            raise ExpressionError(
                f"expected an interval [low, high], found {len(pair)} entries",
                self.peek().position,
            )
        return pair

    def parse_expr(self) -> Node:
        tok = self.advance()
        if tok.kind != "NAME":
            raise ExpressionError(
                f"expected a constructor name, found {tok.text or 'end of input'!r}",
                tok.position,
            )
        if self.depth == _MAX_DEPTH:
            raise ExpressionError(_TOO_DEEP, tok.position)
        self.expect("(")
        kinds = _GRAMMAR.get(tok.text)
        if kinds is None:
            raise ExpressionError(f"unknown constructor {tok.text!r}", tok.position)
        self.depth += 1
        args = []
        for k, kind in enumerate(kinds):
            if k:
                self.expect(",")
            args.append(_READERS[kind](self))
        self.depth -= 1
        self.expect(")")
        return Node(tok.text, tuple(args))


# argument kind -> how the parser reads one
_READERS: dict[str, Callable[[_Parser], object]] = {
    "INT": _Parser.parse_int,
    "expr": _Parser.parse_expr,
    "[[INT, INT], ...]": lambda p: p.parse_list(p.parse_interval, empty=True),
    "[expr, ...]": lambda p: p.parse_list(p.parse_expr, empty=False),
    "[[INT, ...], ...]": lambda p: p.parse_list(p.parse_ints, empty=False),
}

# constructor -> the kinds of its arguments, the grammar of the module docstring
_GRAMMAR: dict[str, tuple[str, ...]] = {
    "chain": ("INT",),
    "boolean": ("INT",),
    "dual": ("expr",),
    "double": ("expr",),
    "dni": ("expr", "INT", "INT", "INT"),
    "join": ("expr", "expr"),
    "glue": ("[expr, ...]", "[[INT, ...], ...]"),
    "dp": ("INT", "[[INT, INT], ...]", "INT"),
    "lemma2": ("INT", "INT"),
    "lemma3": ("INT",),
}


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
    construction functions.

    The walk behind :func:`flag_vector_of` checks the whole tree first
    (sizes, arguments, budgets and nesting; it builds only the glues whose
    chains can cross parts, with their parts); then each node is built
    from its children's posets, each glue once.

    The poset keeps the walk, so :func:`~cdposets.flags.flag_vector` and
    :meth:`~cdposets.poset.RankedPoset.is_eulerian` read the tree's
    identities (``_Plan.flags`` and ``_Plan.eulerian``) instead of matrix
    products, unless the root is a built leaf (module docstring)."""
    plan = _plan(node, budget)
    poset = plan.poset()
    if not plan.leaf:
        object.__setattr__(poset, "_walk", plan)
    return poset


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


def _dp_tree(n: int, intervals, copies: int) -> Node:
    if copies < 1:
        raise ValueError(f"copies must be at least 1, got {copies}")
    diags = validate_even_interval_system(n, intervals)
    if diags:
        raise ValueError("bad interval system: " + "; ".join(diags))
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
    budget: int | None = None,
) -> RankedPoset:
    """Replicate each listed interval of the chain of rank n + 1 into
    ``copies + 1`` disjoint copies and double the result.

    ``copies`` is the growth parameter of the family: for a valid even
    interval system of k intervals the result is Eulerian with
    2^n * (copies + 1)^k maximal chains, and for the single system
    {[1, n]} the cd-index is (copies + 1) c^n - copies (cc - 2d)^{n/2},
    so copies = 0 would be the doubled chain.  Other systems are built as
    trees: {[1, 3]} at n = 4, copies = 1 is ``double(dni(chain(5),1,3,2))``.
    """
    return build_poset(_dp_tree(n, intervals, copies), budget=budget)


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


# -- the walk: flag vectors from the tree, and posets ----------------------


class _Plan(NamedTuple):
    """A node as the walk sees it: level sizes and number of maximal
    chains, checked; ``table(dtype)`` computes the 2^n flag table in that
    dtype, n = len(sizes) - 2, as a fresh array that the caller may write
    to; ``poset()`` builds the node; ``sums(r1, r2, c, dtype)`` gives the
    sums over the closed intervals of the node's quotient between levels
    r1 < r2 that :func:`~cdposets.poset._eulerian_test` takes, for the
    weights c, a list of one int per level; ``compare(r1, r2)`` gives the
    node's 0/1 comparability between levels r1 < r2 as a bool matrix, in
    the built poset's indices (module docstring); ``leaf`` marks a built
    poset as a leaf of the walk (:func:`_built_plan`), whose table and sums
    read that poset."""

    sizes: list[int]
    chains: int
    table: Callable[[type], np.ndarray]
    poset: Callable[[], RankedPoset]
    sums: Callable[[int, int, list[int], type], np.ndarray | int]
    compare: Callable[[int, int], np.ndarray]
    leaf: bool = False

    def flags(self) -> FlagVector:
        """The flag vector, once the flag rank limit is checked: int64
        below ``_INT64_SAFE`` maximal chains, Python ints from there on."""
        n = len(self.sizes) - 2
        check_flag_ranks(n)
        dtype = np.int64 if self.chains < _INT64_SAFE else object
        return FlagVector._from_array(n, self.table(dtype))

    def eulerian(self) -> EulerianResult:
        return _eulerian_test(self.sizes, self.sums)


def _built_plan(poset: RankedPoset) -> _Plan:
    """A built poset as a leaf of the walk: a JSON file, or a glue whose
    chains can cross parts.  Its table is a copy of
    :func:`~cdposets.flags.flag_vector`'s, since the nodes above write
    into their child's table, and its sums are
    :meth:`~cdposets.poset.RankedPoset._interval_sums`."""
    return _Plan(
        list(poset.level_sizes),
        poset.count_maximal_chains(),
        lambda dtype: flag_vector(poset).array.astype(dtype),
        lambda: poset,
        poset._interval_sums,
        functools.partial(_comparability_rows, poset),
        leaf=True,
    )


def flag_vector_of(node: Node, *, budget: int | None = None) -> FlagVector:
    """``flag_vector(build_poset(node, budget=budget))`` without building
    the poset: only a glue whose chains can cross parts is built, with
    its parts (module docstring).

    Both run the same walk, which carries level sizes and the number of
    maximal chains and so raises the same errors in the same order; then
    the flag rank limit is checked, and only then are the tables computed
    by the identities in the module docstring.
    """
    return _plan(node, budget).flags()


def eulerian_of(node: Node, *, budget: int | None = None) -> EulerianResult:
    """``build_poset(node, budget=budget).is_eulerian()`` from the tree:
    the same verdict and the same first violation with the same counts,
    from the same test over the sums of the quotients of the nodes (module
    docstring).  Only the glues whose chains can cross parts are built,
    with their parts.  The walk raises the errors of
    :func:`build_poset` in its order."""
    return _plan(node, budget).eulerian()


def _plan(node: Node, budget: int | None, depth: int = 1) -> _Plan:
    """The only dispatch on node kinds; ``depth`` counts ``node`` and the
    nodes above it in the expanded tree."""
    if depth > _MAX_DEPTH:
        raise ValueError(_TOO_DEEP + " once dp, lemma2 and lemma3 are expanded")
    node = _expand(node)
    kind, args = node.kind, node.args
    if kind == "chain":
        rank = args[0]
        return _Plan(
            chain_sizes(rank, budget=budget),
            1,
            lambda dtype: np.ones(1 << (rank - 1), dtype),
            lambda: chain(rank, budget=budget),
            lambda r1, r2, c, dtype: sum(c[r1 : r2 + 1]),
            lambda r1, r2: np.ones((1, 1), dtype=bool),
        )
    if kind == "boolean":
        k = args[0]
        return _Plan(
            boolean_sizes(k, budget=budget),
            math.factorial(k),
            lambda dtype: _boolean_table(k, dtype),
            lambda: boolean(k, budget=budget),
            lambda r1, r2, c, dtype: sum(
                math.comb(r2 - r1, r - r1) * c[r] for r in range(r1, r2 + 1)
            ),
            functools.partial(_boolean_compare, k),
        )
    if kind == "dual":
        inner = _plan(args[0], budget, depth + 1)
        n = len(inner.sizes) - 1

        def sums(r1, r2, c, dtype):
            found = inner.sums(n - r2, n - r1, c[::-1], dtype)
            return found.T if isinstance(found, np.ndarray) else found

        return _Plan(
            inner.sizes[::-1],
            inner.chains,
            lambda dtype: reversed_table(inner.table(dtype)),
            lambda: inner.poset().dual(),
            sums,
            lambda r1, r2: inner.compare(n - r2, n - r1).T,
        )
    if kind == "double":
        return _doubled(_plan(args[0], budget, depth + 1), budget)
    if kind == "dni":
        inner, low, high, copies = args
        return _replicated(_plan(inner, budget, depth + 1), low, high, copies, budget)
    if kind == "join":
        left = _plan(args[0], budget, depth + 1)
        right = _plan(args[1], budget, depth + 1)
        sizes = joined_sizes(left.sizes, right.sizes, budget=budget)
        a = len(left.sizes) - 1

        def compare(r1, r2):
            if r2 < a:
                return left.compare(r1, r2)
            if r1 >= a:
                return right.compare(r1 - a + 1, r2 - a + 1)
            return np.ones((sizes[r1], sizes[r2]), dtype=bool)

        return _Plan(
            sizes,
            left.chains * right.chains,
            lambda dtype: np.outer(right.table(dtype), left.table(dtype)).ravel(),
            lambda: join(left.poset(), right.poset(), budget=budget),
            _joined_sums(left, right),
            compare,
        )
    if kind == "glue":
        parts, rank_sets = args
        if len(parts) != len(rank_sets):
            raise ValueError(
                f"glue got {len(parts)} parts but {len(rank_sets)} rank sets"
            )
        plans = [_plan(part, budget, depth + 1) for part in parts]
        layout = _glue_layout(
            [(plan.sizes, plan.compare, ranks) for plan, ranks in zip(plans, rank_sets)],
            budget=budget,
        )
        # builds anew on each call and holds nothing, so a kept walk does
        # not keep the glue alive
        def glued():
            return _glued(layout, [plan.poset() for plan in plans])

        if _chains_stay_in_parts(layout.sets):
            return _glued_plan(plans, layout, glued)
        return _built_plan(glued())
    raise ValueError(f"unknown node kind {kind!r}")


def _doubled(inner: _Plan, budget: int | None) -> _Plan:
    n = len(inner.sizes) - 2

    def table(dtype):
        weights = np.ones(1, dtype)  # 2^|S|
        for _ in range(n):
            weights = np.concatenate([weights, 2 * weights])
        return inner.table(dtype) * weights

    sizes = doubled_sizes(inner.sizes, budget=budget)
    return _Plan(
        sizes,
        inner.chains << n,
        table,
        lambda: horizontal_double(inner.poset(), budget=budget),
        # both copies of every element strictly inside lie in the interval
        lambda r1, r2, c, dtype: inner.sums(
            r1, r2, c[: r1 + 1] + [2 * w for w in c[r1 + 1 : r2]] + c[r2:], dtype
        ),
        # every cover goes to all the copy pairs of its levels
        lambda r1, r2: _tiled(inner, sizes, r1, r2),
    )


def _replicated(inner: _Plan, low: int, high: int, copies: int, budget: int | None) -> _Plan:
    def table(dtype):
        # the sets meeting [low, high] have a nonzero middle index; a view's
        # shape is set in place or raises, so the multiply never hits a copy
        out = inner.table(dtype)
        view = out.view()
        view.shape = (-1, 1 << (high - low + 1), 1 << (low - 1))
        view[:, 1:] *= copies
        return out

    def sums(r1, r2, c, dtype):
        # every copy of an inner element of [low, high] lies in the
        # interval when neither end does, and one copy otherwise
        if not (low <= r1 <= high or low <= r2 <= high):
            c = [w * copies if low <= r <= high else w for r, w in enumerate(c)]
        return inner.sums(r1, r2, c, dtype)

    sizes = replicated_sizes(inner.sizes, low, high, copies, budget=budget)

    def compare(r1, r2):
        # covers inside [low, high] stay in their copy, the others go to
        # every copy
        if low <= r1 and r2 <= high:
            # kron(eye(copies), comp), without np.kron's overhead
            comp = inner.compare(r1, r2)
            blocks = np.eye(copies, dtype=bool)[:, None, :, None] & comp[None, :, None, :]
            return blocks.reshape(sizes[r1], sizes[r2])
        return _tiled(inner, sizes, r1, r2)

    return _Plan(
        sizes,
        # every maximal chain runs through the replicated levels
        inner.chains * copies,
        table,
        lambda: replicate_interval(inner.poset(), low, high, copies, budget=budget),
        sums,
        compare,
    )


def _tiled(inner: _Plan, sizes: Sequence[int], r1: int, r2: int) -> np.ndarray:
    """``inner``'s comparability between levels r1 and r2 at every pair of
    copies, levels of ``sizes``: copy a of element i is at a·L + i."""
    comp = inner.compare(r1, r2)
    reps = (sizes[r1] // comp.shape[0], sizes[r2] // comp.shape[1])
    # no copies at either level: the comparability itself (no caller
    # writes to one)
    return comp if reps == (1, 1) else np.tile(comp, reps)


def _joined_sums(left: _Plan, right: _Plan) -> Callable:
    """The sums of ``join(left, right)``: levels below a, the rank of
    ``left``, are its levels, and level r from a on is level r - a + 1 of
    ``right``.  Every u below a is below every v from a on, and [u, v] is
    [u, top] of ``left`` and [bottom, v] of ``right`` without that top and
    that bottom.  A side that is one int broadcasts (module docstring)."""
    a = len(left.sizes) - 1

    def sums(r1, r2, c, dtype):
        if r2 < a:
            return left.sums(r1, r2, c[: a + 1], dtype)
        if r1 >= a:
            return right.sums(r1 - a + 1, r2 - a + 1, c[a - 1 :], dtype)
        # each side less its end outside the join counts the elements of
        # [u, v] on that side, so each partial sum counts elements too
        below = left.sums(r1, a, c[: a + 1], dtype) - c[a]
        above = right.sums(0, r2 - a + 1, c[a - 1 :], dtype) - c[a - 1]
        return below + above

    return sums


def _chains_stay_in_parts(glue_sets: Sequence[frozenset[int]]) -> bool:
    """Whether, for every two parts, the ranks outside both glue sets form
    one run of consecutive ranks (or none): then every maximal chain of the
    glue lies in one part (module docstring)."""
    for first, second in combinations(glue_sets, 2):
        shared = first & second
        outside = [r for r in range(max(shared) + 1) if r not in shared]
        if outside and outside[-1] - outside[0] >= len(outside):
            return False
    return True


def _glued_plan(plans: Sequence[_Plan], layout, glued: Callable[[], RankedPoset]) -> _Plan:
    """A glue whose maximal chains each lie in one part, from its parts'
    plans and the blocks of its levels (module docstring).  Its flag table
    adds theirs, except that an S within the glue sets of several parts
    counts in the first of them only.  On a block X of level r1 and a
    block Y of level r2 with parts J in common, its comparability is part
    min J's and its sums are Σ_{j∈J} Q_j times that comparability: Q_j is
    part j's sums with the weights of the ranks that j glues at with an
    earlier part of J set to 0, read at each index modulo its shape.
    Blocks with no common part are 0, and when every block is 0, so are
    the sums, as one int.  ``glued()`` builds the glue, for its poset
    only."""
    n = len(layout.sizes) - 2
    # the glue sets as masks of proper ranks
    masks = [sum(1 << (r - 1) for r in gs if 1 <= r <= n) for gs in layout.sets]
    full = (1 << n) - 1
    chains = 0
    for k, plan in enumerate(plans):
        if masks[k] != full or full not in masks[:k]:
            chains += plan.chains

    def table(dtype):
        subsets = np.arange(1 << n)
        out = np.zeros(1 << n, dtype)
        earlier = np.zeros(1 << n, dtype=bool)  # S within an earlier glue set
        for plan, mask in zip(plans, masks):
            inside = (subsets & ~mask) == 0
            part = plan.table(dtype)
            part[inside & earlier] = 0
            out += part
            earlier |= inside
        return out

    def block_pairs(r1, r2):
        """Each pair of blocks of levels r1 and r2 with parts in common:
        their first indices and the common parts, in order."""
        for x, x_parts in layout.blocks[r1]:
            for y, y_parts in layout.blocks[r2]:
                if x_parts & y_parts:
                    yield x, y, sorted(x_parts & y_parts)

    def compare(r1, r2):
        out = np.zeros((layout.sizes[r1], layout.sizes[r2]), dtype=bool)
        for x, y, common in block_pairs(r1, r2):
            comp = plans[common[0]].compare(r1, r2)
            out[x : x + comp.shape[0], y : y + comp.shape[1]] = comp
        return out

    def sums(r1, r2, c, dtype):
        out = None
        for x, y, common in block_pairs(r1, r2):
            rows, cols = plans[common[0]].sizes[r1], plans[common[0]].sizes[r2]
            total = 0
            for i, j in enumerate(common):
                # ranks counted in an earlier part of the block
                once = {r for k in common[:i] for r in layout.sets[j] & layout.sets[k]}
                weights = [0 if r in once else w for r, w in enumerate(c)]
                part = plans[j].sums(r1, r2, weights, dtype)
                if isinstance(part, np.ndarray):
                    part = np.tile(part, (rows // part.shape[0], cols // part.shape[1]))
                total = total + part
            if total.any() if isinstance(total, np.ndarray) else total:
                if out is None:
                    out = np.zeros((layout.sizes[r1], layout.sizes[r2]), dtype)
                out[x : x + rows, y : y + cols] = total
        return 0 if out is None else _in_dtype(compare(r1, r2), dtype) * out

    return _Plan(layout.sizes, chains, table, glued, sums, compare)


def _boolean_compare(k: int, r1: int, r2: int) -> np.ndarray:
    """Inclusion of the r1-subsets of {0, ..., k-1} in the r2-subsets, each
    level in the order of ``itertools.combinations``, as
    :func:`~cdposets.poset.boolean` lists them."""
    lower, upper = (list(combinations(range(k), r)) for r in (r1, r2))
    members = np.zeros((len(upper), k), dtype=bool)  # members[v, e]: e in v
    members[np.arange(len(upper)).repeat(r2), np.array(upper, dtype=np.intp).ravel()] = True
    out = np.ones((len(lower), len(upper)), dtype=bool)
    for t in range(r1):  # u ⊆ v when each element of u is in v
        out &= members[:, [u[t] for u in lower]].T
    return out


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
