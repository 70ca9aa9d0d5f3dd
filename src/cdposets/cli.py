"""Command line interface.

Poset arguments accept either a path to a JSON file produced by ``build``
or an inline construction expression (see :mod:`cdposets.exprs`).  One
loader, :func:`_load_plan`, turns either into a plan of the expression
walk: a file is validated and becomes a built leaf, as a glue whose
chains can cross parts does inside the walk, and an expression is its
tree.  Every command reads that plan: ``build`` its poset, the commands
that need only flag data (``flags``, ``l-vector``, ``cd-index``,
``check-inequality``) its flag table, and ``check-eulerian`` its Eulerian
test.  So an expression's flag data and Eulerian test come from its tree,
building only its glues, and a file's from its poset, by the same loop
over closed interval sums, which reports the same violation.

Commands return their results and :func:`main` writes them: each
``_cmd_*`` function returns its exit code, a JSON object and a table form
(a line of text, or a function that prints the table), and ``main`` alone
chooses the format and writes to stdout or to the ``build -o`` file.
Output is deterministic: JSON with sorted keys, or fixed-width tables,
rendered only when ``--format table`` asks for them.

The JSON is exactly ``json.dumps(obj, sort_keys=True, indent=2)``.  The
large tables are written by :func:`_json_text` from the objects that hold
them, in the bytes of that call on their ``to_dict()``: json indents only
in its Python encoder, which costs more than computing a 2^n table.  A
flag table (``flags``) is one ``%`` of a label template cached per n
(:func:`_flag_template`) with its entries in label order; an L table
(``l-vector``) takes its nonzero entries in that order
(:func:`_label_order`, also cached per n), or sorts a few; a
cd-index (``cd-index``) and a ``limit-l`` table write their entries as
sorted ``"key": value`` lines; a poset (``build``) writes each cover level
as one ``%`` of a pattern of its pairs, and ``check-inequality --all``
each violation as one ``%`` of a pattern of its four fields.  Their keys
are subset labels, cd words and fixed field names, each its own JSON
between quotes, and so are the violations' values.
Every other object is written by ``json.dumps``.  A table form is printed
as one string.

Exit codes: 0 on success, 1 when a mathematical check fails (a poset is
not Eulerian, an inequality is violated, a verification suite mismatches),
2 on usage errors (bad syntax, bad ranges, malformed input, budgets) and
when memory runs out.  Output cut short by a closed stdout (``| head``) is
not an error: the command's own exit code stands and nothing is printed
on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from .analysis import (
    _inequality_violations,
    classify_word,
    count_part1_words,
    inequality_f_form,
    limit_l_vector,
    negative_witness,
    nonneg_certificate,
)
from .constructions import join as join_posets
from .corpus import eulerian_corpus, join_pairs
from .errors import BudgetError, NotCdExpressibleError
from .exprs import _built_plan, _Plan, _plan, build_poset, parse_expression
from .flags import (
    CdPolynomial,
    FlagVector,
    LVector,
    _dyadic_str,
    cd_from_l,
    cd_index,
    cd_words,
    flag_vector,
    l_vector,
)
from .poset import RankedPoset, _check_budget, boolean
from .subsets import parse_subset, reverse_mask, subset_label, subset_labels


def _load_poset_file(path: str, budget: int | None) -> RankedPoset:
    with open(path) as handle:
        try:
            data = json.load(handle)
        except RecursionError as exc:  # the decoder recurses once per nested list
            raise ValueError(f"{path}: {exc}") from None
    poset = RankedPoset.from_dict(data)
    # validate() walks every declared element, so bound them first
    _check_budget(sum(poset.level_sizes), budget, f"poset file {path}")
    diags = poset.validate()
    if diags:
        raise ValueError(f"{path}: invalid poset: " + "; ".join(diags))
    return poset


def _load_plan(text: str, budget: int | None) -> _Plan:
    """The plan of a poset argument: a file's poset as a built leaf, or
    an expression's walk, which builds nothing until asked."""
    if os.path.exists(text):
        return _built_plan(_load_poset_file(text, budget))
    return _plan(parse_expression(text), budget)


def _emit_json(obj, path: str | None = None) -> None:
    text = _json_text(obj)
    if path:
        with open(path, "w") as handle:
            handle.write(text)
            handle.write("\n")
    else:
        print(text)


# n -> (template, order) of the JSON of a 2^n flag table (see _flag_template)
_FLAG_TEMPLATES: dict[int, tuple[str, np.ndarray]] = {}


def _flag_template(n: int) -> tuple[str, np.ndarray]:
    """The JSON of a 2^n flag table with ``"%d"`` for each entry, and the
    masks in the order of their lines, as one read-only intp array.

    ``json.dumps(table.to_dict(), sort_keys=True, indent=2)`` writes the
    same labels in the same order for every table of n ranks, so both are
    built on the first table of n ranks and kept; n is at most
    ``MAX_FLAG_RANKS``.  No label is kept on its own: 2^n ``str`` objects
    take several times the bytes of the one template.
    """
    if n not in _FLAG_TEMPLATES:
        labels = subset_labels(n)
        masks = _label_order(n)
        lines = [labels[m] for m in masks.tolist()]
        template = '{\n  "' + '": "%d",\n  "'.join(lines) + '": "%d"\n}'
        _FLAG_TEMPLATES[n] = template, masks
    return _FLAG_TEMPLATES[n]


@functools.cache
def _label_order(n: int) -> np.ndarray:
    """The masks below 2^n in the order of their labels as strings, as
    one read-only intp array, generated in that order and kept; n is at
    most ``MAX_FLAG_RANKS``.

    After its ``[``, a label is one token per rank, ``s,`` for each rank
    but the last and ``s]`` for the last, or the token ``]`` alone.  Each
    token is digits and then one character that is not a digit, so no
    token is a prefix of another, and labels compare as their sequences of
    tokens.  So the labels that go on after rank p are in the order of
    their next token, and those whose next token is ``s,`` in the order of
    what follows it: the labels that go on after rank s."""
    # tails[p]: the nonempty sets of ranks above p, in label order
    tails = [np.zeros(0, np.intp) for _ in range(n + 1)]
    for p in range(n - 1, -1, -1):
        tokens = sorted((f"{s}{end}", s) for s in range(p + 1, n + 1) for end in ",]")
        tails[p] = np.concatenate(
            [
                (1 << (s - 1)) | (tails[s] if token.endswith(",") else np.zeros(1, np.intp))
                for token, s in tokens
            ]
        )
    # the token "]" of the empty set comes after every digit
    order = np.concatenate([tails[0], np.zeros(1, np.intp)])
    order.setflags(write=False)
    return order


def _flag_table_json(table: FlagVector) -> str:
    """``json.dumps(table.to_dict(), sort_keys=True, indent=2)``: the entries
    in label order, as Python ints, fill the template of n ranks."""
    template, order = _flag_template(table.n)
    return template % tuple(table.array[order].tolist())


def _n_table_json(n: int, name: str, lines: list[str]) -> str:
    """``json.dumps({"n": n, name: table}, sort_keys=True, indent=2)``, given
    the table's ``"key": value`` lines in key order.  The keys are subset
    labels or cd words of one degree, which are their own JSON between
    quotes, and no key is a prefix of another, so sorted lines are in key
    order.  The text is one join, so a table of one wide line is copied
    once."""
    table = ("{\n    ", ",\n    ".join(lines), "\n  }") if lines else ("{}",)
    n_field, name_field = ('"n": ', str(n)), (f'"{name}": ', *table)
    first, second = sorted([n_field, name_field])
    return "".join(["{\n  ", *first, ",\n  ", *second, "\n}"])


def _l_table_json(table: LVector) -> str:
    """``json.dumps(table.to_dict(), sort_keys=True, indent=2)``.

    A dense table, whose ``LVector.to_dict`` reads its labels from
    ``subset_labels(n)``, takes its nonzero entries in label order
    (:func:`_label_order`), with no sort and no flag template.  A sparse
    one writes the entries of ``to_dict``, sorted.
    """
    n, array = table.n, table.array
    if table._dense():
        order = _label_order(n)
        masks = order[array[order] != 0]
        labels = subset_labels(n)
        lines = [
            f'"{labels[mask]}": "{_dyadic_str(value, n)}"'
            for mask, value in zip(masks.tolist(), array[masks].tolist())
        ]
    else:
        entries = table.to_dict()["entries"].items()
        lines = sorted([f'"{label}": "{value}"' for label, value in entries])
    return _n_table_json(n, "entries", lines)


class _LimitTable(NamedTuple):
    """A ``limit-l`` table: mask -> integer entry; its JSON lists them by
    subset label."""

    n: int
    entries: dict[int, int]


def _json_list(items: list[str], indent: str) -> str:
    """The indented JSON list of the rendered ``items``, for a list whose
    first line is indented by ``indent``."""
    if not items:
        return "[]"
    inner = "\n" + indent + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + indent + "]"


# one cover pair of build's JSON, at the depth of its level's list
_COVER_PAIR = "[\n        %d,\n        %d\n      ]"


def _poset_json(poset: RankedPoset) -> str:
    """``json.dumps(poset.to_dict(), sort_keys=True, indent=2)``: each cover
    level is one ``%`` of a pattern of its pairs over its cover array."""
    levels = [
        _json_list([_COVER_PAIR] * len(pairs), "    ") % tuple(pairs.ravel().tolist())
        for pairs in poset.cover_arrays
    ]
    sizes = _json_list([str(size) for size in poset.level_sizes], "  ")
    return '{\n  "covers": %s,\n  "level_sizes": %s,\n  "rank": %d\n}' % (
        _json_list(levels, "  "), sizes, poset.rank
    )


def _json_text(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``: the tables the
    commands build are written from the objects that hold them, in the
    bytes of their ``to_dict()``'s JSON, and anything else by that call."""
    if isinstance(obj, FlagVector):
        return _flag_table_json(obj)
    if isinstance(obj, LVector):
        return _l_table_json(obj)
    if isinstance(obj, CdPolynomial):
        terms = sorted([f'"{word}": {coeff}' for word, coeff in obj.terms.items()])
        return _n_table_json(obj.n, "terms", terms)
    if isinstance(obj, _LimitTable):
        # each label lives only until its line is made
        entries = sorted([f'"{subset_label(m)}": {value}' for m, value in obj.entries.items()])
        return _n_table_json(obj.n, "entries", entries)
    if isinstance(obj, RankedPoset):
        return _poset_json(obj)
    if isinstance(obj, _InequalityTable):
        return _inequality_json(obj)
    return json.dumps(obj, sort_keys=True, indent=2)


def _emit_table(rows: list[dict], columns: list[str]) -> None:
    padded = []
    for col in columns:
        texts = [str(row.get(col, "")) for row in rows]
        width = max(len(col), max(map(len, texts), default=0))
        padded.append([col.ljust(width), "-" * width, *(text.ljust(width) for text in texts)])
    print("\n".join(map("  ".join, zip(*padded))))


def _add_poset_arg(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("poset", help="JSON file or construction expression")
    sub.add_argument(
        "--max-elements",
        type=int,
        default=None,
        help="element budget for constructions (default 10^6)",
    )


def _add_format_arg(sub: argparse.ArgumentParser, default: str) -> None:
    sub.add_argument("--format", choices=["json", "table"], default=default)


# -- subcommands --------------------------------------------------------


def _cmd_build(args):
    return 0, _load_plan(args.expr, args.max_elements).poset(), None


def _cmd_flags(args):
    table = _load_plan(args.poset, args.max_elements).flags()
    return 0, table, lambda: _emit_table(
        [{"S": label, "f_S": value} for label, value in table.to_dict().items()], ["S", "f_S"]
    )


def _cmd_cd_index(args):
    poly = cd_from_l(l_vector(_load_plan(args.poset, args.max_elements).flags()))
    return 0, poly, lambda: _emit_table(
        [{"word": word, "coefficient": poly.terms[word]} for word in sorted(poly.terms)],
        ["word", "coefficient"],
    )


def _cmd_l_vector(args):
    table = l_vector(_load_plan(args.poset, args.max_elements).flags())
    return 0, table, lambda: _emit_table(
        [{"Q": label, "L_Q": value} for label, value in table.to_dict()["entries"].items()],
        ["Q", "L_Q"],
    )


def _cmd_check_eulerian(args):
    result = _load_plan(args.poset, args.max_elements).eulerian()
    if result.eulerian:
        return 0, {"eulerian": True}, "eulerian: yes"
    v = result.violation
    detail = {
        "eulerian": False,
        "interval": {
            "low": [v.rank_low, v.index_low],
            "high": [v.rank_high, v.index_high],
            "even_count": v.even_count,
            "odd_count": v.odd_count,
        },
    }
    return 1, detail, (
        f"eulerian: no; interval from rank {v.rank_low} index {v.index_low} "
        f"to rank {v.rank_high} index {v.index_high} has "
        f"{v.even_count} even and {v.odd_count} odd elements"
    )


_INEQUALITY_FIELDS = ["T", "V", "f_form", "l_form"]


def _inequality_fields(n: int, t_mask: int, v_mask: int, f_val: int) -> tuple[str, ...]:
    """The values of the ``_INEQUALITY_FIELDS`` of one (T, V) pair."""
    # the L form is the f form over 2^(|S| + |T|) for every table (see
    # cdposets.analysis)
    return (
        subset_label(t_mask),
        subset_label(v_mask),
        str(f_val),
        _dyadic_str(f_val, n - v_mask.bit_count() + t_mask.bit_count()),
    )


def _inequality_row(n: int, t_mask: int, v_mask: int, f_val: int) -> dict:
    return dict(zip(_INEQUALITY_FIELDS, _inequality_fields(n, t_mask, v_mask, f_val)))


class _InequalityTable(NamedTuple):
    """A ``check-inequality --all`` result: the number of (T, V) pairs and
    the violated ones as (T mask, V mask, f form); its JSON lists each
    violation as an :func:`_inequality_row`."""

    n: int
    pairs: int
    violations: list[tuple[int, int, int]]


# one violation of check-inequality --all, at the depth of its list
_VIOLATION = (
    '{\n      "T": "%s",\n      "V": "%s",\n      "f_form": "%s",\n      "l_form": "%s"\n    }'
)


def _inequality_json(table: _InequalityTable) -> str:
    """``json.dumps({"pairs": ..., "violations": [rows]}, sort_keys=True,
    indent=2)``: the fields are labels and integers, JSON between quotes as
    they are, and each row is written when the text is."""
    rows = [_VIOLATION % _inequality_fields(table.n, *v) for v in table.violations]
    return '{\n  "pairs": %d,\n  "violations": %s\n}' % (table.pairs, _json_list(rows, "  "))


def _cmd_check_inequality(args):
    flags = _load_plan(args.poset, args.max_elements).flags()
    # --all takes neither --T nor --V; without it both are needed
    if args.all != (args.T is None) or args.all != (args.V is None):
        raise ValueError("provide either --all or both --T and --V")
    if args.all:
        pairs, violations = _inequality_violations(flags)

        def table():
            print(f"checked {pairs} (T, V) pairs, {len(violations)} violations")
            if violations:
                rows = [_inequality_row(flags.n, *v) for v in violations]
                _emit_table(rows, _INEQUALITY_FIELDS)

        return 1 if violations else 0, _InequalityTable(flags.n, pairs, violations), table
    t_mask, v_mask = parse_subset(args.T), parse_subset(args.V)
    f_val = inequality_f_form(flags, t_mask, v_mask)
    detail = _inequality_row(flags.n, t_mask, v_mask, f_val)
    detail["nonnegative"] = f_val >= 0
    return 0 if f_val >= 0 else 1, detail, lambda: _emit_table(
        [detail], ["T", "V", "f_form", "l_form", "nonnegative"]
    )


# ranks that the labels of one limit-l table may list in all; a label and
# the copies of it that printing makes peak at about 27 bytes a rank
# (16,000,000 ranks, CPython 3.11), so one label at the limit takes about 1 GB
_LABEL_RANKS = 1 << 25


def _cmd_limit_l(args):
    intervals = _parse_intervals(args.intervals)
    table = limit_l_vector(args.n, intervals)
    ranks = sum(mask.bit_count() for mask in table)
    if ranks > _LABEL_RANKS:
        raise BudgetError(
            f"limit-l labels would list {ranks} ranks, "
            f"limit is 2^{_LABEL_RANKS.bit_length() - 1}"
        )
    return 0, _LimitTable(args.n, table), lambda: _emit_table(
        [{"S": subset_label(mask), "L_S": value} for mask, value in sorted(table.items())],
        ["S", "L_S"],
    )


def _parse_intervals(text: str) -> list[tuple[int, int]]:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"bad interval list {text!r}: {exc}") from None
    if not isinstance(data, list):
        raise ValueError("intervals must be a JSON list of [low, high] pairs")
    out = []
    for pair in data:
        if not (
            isinstance(pair, list)
            and len(pair) == 2
            and all(isinstance(end, int) and not isinstance(end, bool) for end in pair)
        ):
            raise ValueError(f"bad interval {pair!r}")
        out.append((pair[0], pair[1]))
    return out


def _cmd_classify(args):
    result = classify_word(args.word)
    parts = [f"word {result.word}", f"class {result.tag}"]
    if result.witness is not None:
        parts.append(f"witness {result.witness} at {result.position}")
    return 0, result.to_dict(), "; ".join(parts)


def _cmd_certificate(args):
    data = nonneg_certificate(args.word).to_dict()
    return 0, data, (
        f"word {data['word']}; class {data['class']}; "
        f"S {data['S']}; T {data['T']}; V {data['V']}"
    )


def _cmd_witness(args):
    report = negative_witness(args.word, args.N, budget=args.max_elements)
    data = report.to_dict()
    data["rank"] = len(report.level_sizes) - 1
    data["elements"] = sum(report.level_sizes)
    return 0, data, (
        f"word {data['word']}; witness {data['witness']} at {data['position']}; "
        f"base {data['base']}; coefficient {data['coefficient']}"
    )


# -- verification suites -------------------------------------------------


def _row(check: str, expected, actual) -> dict:
    return {
        "check": check,
        "expected": str(expected),
        "actual": str(actual),
        "ok": str(expected) == str(actual),
    }


def _closed_form(n: int, copies: int) -> CdPolynomial:
    c = CdPolynomial.monomial("c")
    d = CdPolynomial.monomial("d")
    return (copies + 1) * c**n - copies * (c * c - 2 * d) ** (n // 2)


def _suite_lemma1() -> list[dict]:
    rows = []
    for n in (4, 6):
        for copies in (1, 2, 3):
            name = f"dp({n},[[1,{n}]],{copies})"
            actual = cd_index(build_poset(parse_expression(name)))
            rows.append(_row(f"cd-index of {name}", _closed_form(n, copies), actual))
    return rows


def _glued_family_rows(
    template: str, copies_range: tuple[int, ...], word: str, closed_form: Callable[[int], int]
) -> list[dict]:
    rows = []
    for copies in copies_range:
        name = template.format(copies)
        poset = build_poset(parse_expression(name))
        rows.append(_row(f"{name} eulerian", True, poset.is_eulerian().eulerian))
        rows.append(
            _row(
                f"{name} coefficient of {word}",
                closed_form(copies),
                cd_index(poset).coefficient(word),
            )
        )
    return rows


def _suite_note_count() -> list[dict]:
    rows = []
    part1 = {}
    for n in range(1, 11):
        words = cd_words(n)
        tags = [classify_word(w).tag for w in words]
        split = {tag: tags.count(tag) for tag in ("Part1a", "Part1b", "Part2", "Part3")}
        rows.append(_row(f"degree {n} classes partition", len(words), sum(split.values())))
        part1[n] = split["Part1a"] + split["Part1b"]
    # the closed form against the classified words
    for n in range(5, 11):
        rows.append(_row(f"degree {n} Part1 count", count_part1_words(n), part1[n]))
    fib = [0, 1, 1]
    while len(fib) < 15:
        fib.append(fib[-1] + fib[-2])
    for n in range(1, 13):
        rows.append(_row(f"degree {n} word count", fib[n + 1], len(cd_words(n))))
    return rows


def _suite_join_mult() -> list[dict]:
    rows = []
    for name, left, right in join_pairs():
        joined = join_posets(left, right)
        rows.append(
            _row(
                f"{name} cd-index multiplicative",
                cd_index(left) * cd_index(right),
                cd_index(joined),
            )
        )
        rows.append(_row(f"{name} eulerian", True, joined.is_eulerian().eulerian))
    return rows


def _suite_duality() -> list[dict]:
    rows = []
    for name, poset in eulerian_corpus():
        # the dual first: taken from a poset that holds its flag table, the
        # dual would be handed that table reversed instead of computing its own
        dual_flags = flag_vector(poset.dual())
        flags = flag_vector(poset)
        ok_cd = cd_from_l(l_vector(dual_flags)) == cd_from_l(l_vector(flags)).reverse()
        ok_flags = all(
            dual_flags.values[mask] == flags.values[reverse_mask(mask, flags.n)]
            for mask in range(1 << flags.n)
        )
        # and the reversal that poset.dual() hands over once poset holds a table
        ok_handed = flag_vector(poset.dual()) == dual_flags
        rows.append(_row(f"{name} duality", True, ok_cd and ok_flags and ok_handed))
    return rows


def _suite_boolean_positivity() -> list[dict]:
    rows = []
    for k in range(1, 7):
        poly = cd_index(boolean(k))
        rows.append(
            _row(
                f"boolean({k}) strictly positive cd coefficients",
                True,
                bool(poly.terms) and min(poly.terms.values()) > 0,
            )
        )
    return rows


_SUITES = {
    "lemma1": _suite_lemma1,
    "lemma2": lambda: _glued_family_rows(
        "lemma2(7,{})", (1, 2), "dcccd", lambda m: 4 * (m**2 - m**4)
    ),
    "lemma3": lambda: _glued_family_rows(
        "lemma3({})", (1, 2, 3), "ccdcc", lambda m: -2 * (m - 1) ** 2
    ),
    "note-count": _suite_note_count,
    "join-mult": _suite_join_mult,
    "duality": _suite_duality,
    "boolean-positivity": _suite_boolean_positivity,
}


def _cmd_verify(args):
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    rows = []
    for name in names:
        for row in _SUITES[name]():
            row = dict(row)
            row["suite"] = name
            rows.append(row)
    failed = [row for row in rows if not row["ok"]]

    def table():
        _emit_table(rows, ["suite", "check", "expected", "actual", "ok"])
        print(f"{len(rows) - len(failed)}/{len(rows)} checks passed")

    return 1 if failed else 0, {"rows": rows, "passed": not failed}, table


# -- argument parsing -----------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: parsing keeps no
    state in it, and building it costs far more than a parse."""
    parser = argparse.ArgumentParser(
        prog="cdposets",
        description="Build ranked posets and compute their flag and cd data.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("build", help="evaluate a construction expression")
    sub.add_argument("expr")
    sub.add_argument("-o", "--output", default=None)
    sub.add_argument("--max-elements", type=int, default=None)
    sub.set_defaults(func=_cmd_build)

    for name, help_text, func in (
        ("flags", "flag vector of a poset", _cmd_flags),
        ("cd-index", "cd-index of a poset", _cmd_cd_index),
        ("l-vector", "L table of a poset", _cmd_l_vector),
        ("check-eulerian", "exhaustive Eulerian test", _cmd_check_eulerian),
    ):
        sub = subs.add_parser(name, help=help_text)
        _add_poset_arg(sub)
        _add_format_arg(sub, "json")
        sub.set_defaults(func=func)

    sub = subs.add_parser(
        "check-inequality", help="interval inequality over one pair or all pairs"
    )
    _add_poset_arg(sub)
    _add_format_arg(sub, "json")
    sub.add_argument("--all", action="store_true")
    sub.add_argument("--T", default=None, help='T subset, e.g. "[1,2]"')
    sub.add_argument("--V", default=None, help='V subset, e.g. "[1,2,3]"')
    sub.set_defaults(func=_cmd_check_inequality)

    sub = subs.add_parser("limit-l", help="limit L table of an interval system")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--intervals", required=True, help='e.g. "[[1,2],[3,4]]"')
    _add_format_arg(sub, "json")
    sub.set_defaults(func=_cmd_limit_l)

    sub = subs.add_parser("classify", help="classify a cd word")
    sub.add_argument("word")
    _add_format_arg(sub, "json")
    sub.set_defaults(func=_cmd_classify)

    sub = subs.add_parser("certificate", help="nonnegativity certificate of a word")
    sub.add_argument("word")
    _add_format_arg(sub, "json")
    sub.set_defaults(func=_cmd_certificate)

    sub = subs.add_parser("witness", help="negative-coefficient witness poset")
    sub.add_argument("word")
    sub.add_argument("--N", type=int, required=True, help="copies parameter")
    sub.add_argument("--max-elements", type=int, default=None)
    _add_format_arg(sub, "json")
    sub.set_defaults(func=_cmd_witness)

    sub = subs.add_parser("verify", help="run a verification suite")
    sub.add_argument("suite", choices=sorted(_SUITES) + ["all"])
    _add_format_arg(sub, "table")
    sub.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code, data, table = args.func(args)
        try:
            if getattr(args, "format", "json") == "json":
                _emit_json(data, getattr(args, "output", None))
            elif callable(table):
                table()
            else:
                print(table)
        except BrokenPipeError:
            # the reader closed stdout (`| head`): the rest of the output is
            # dropped, and stdout goes to the null device so that the
            # interpreter's flush at exit does not fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return code
    except NotCdExpressibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (BudgetError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy names the allocation it refused; Python's own MemoryError is bare
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
