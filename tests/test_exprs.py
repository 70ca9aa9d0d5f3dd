"""Expression language round trips, parse diagnostics, and flag vectors
computed from the expression tree."""

import collections
import contextlib
import gc
import io
import json
import os
import random
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import fresh
from cdposets import (
    BudgetError,
    ExpressionError,
    RankedPoset,
    boolean,
    build_poset,
    chain,
    dp_poset,
    eulerian_of,
    even_interval_systems,
    flag_vector,
    flag_vector_of,
    glue,
    horizontal_double,
    join,
    lemma2_poset,
    lemma3_poset,
    parse_expression,
    ranks_from_mask,
    replicate_interval,
)
from cdposets import cli, exprs
from cdposets.constructions import _comparability_rows, _glue_layout
from cdposets.exprs import _lemma2_glue, _lemma3_glue


def build(text):
    return build_poset(parse_expression(text))


@pytest.mark.parametrize(
    "text,direct",
    [
        ("chain(4)", lambda: chain(4)),
        ("boolean(3)", lambda: boolean(3)),
        ("dual(boolean(3))", lambda: boolean(3).dual()),
        ("double(chain(3))", lambda: horizontal_double(chain(3))),
        ("dni(chain(5), 1, 4, 3)", lambda: replicate_interval(chain(5), 1, 4, 3)),
        ("join(boolean(2), chain(2))", lambda: join(boolean(2), chain(2))),
        ("dp(4, [[1, 2], [3, 4]], 2)", lambda: dp_poset(4, [(1, 2), (3, 4)], 2)),
        ("lemma2(7, 2)", lambda: lemma2_poset(7, 2)),
        ("lemma3(2)", lambda: lemma3_poset(2)),
        (
            "glue([boolean(3), boolean(3)], [[0, 3], [0, 3]])",
            lambda: glue([(boolean(3), (0, 3)), (boolean(3), (0, 3))]),
        ),
    ],
)
def test_build_matches_direct_constructors(text, direct):
    assert build(text) == direct()


def test_whitespace_insensitive():
    assert build(" dp( 4,[[1,4]] , 1 ) ") == dp_poset(4, [(1, 4)], 1)


def test_nested_expressions():
    got = build("join(dual(boolean(2)), double(chain(2)))")
    assert got == join(boolean(2).dual(), horizontal_double(chain(2)))


def test_parse_tree_shape():
    node = parse_expression("dp(4, [[1, 4]], 2)")
    assert node.kind == "dp"
    assert node.args == (4, ((1, 4),), 2)


@pytest.mark.parametrize(
    "text,fragment,position",
    [
        ("frob(3)", "unknown constructor 'frob'", 0),
        ("chain(x)", "expected an integer", 6),
        ("chain(3", "expected ')'", 7),
        ("chain(3))", "trailing input", 8),
        ("dp(4, [[1, 4, 5]], 1)", "interval", 16),
        ("join(chain(2) chain(2))", "expected ','", 14),
        ("chain(3)$", "unexpected character", 8),
        ("", "expected a constructor name", 0),
    ],
)
def test_parse_errors_carry_offsets(text, fragment, position):
    with pytest.raises(ExpressionError) as err:
        parse_expression(text)
    assert fragment in str(err.value)
    assert err.value.position == position


def test_domain_errors_pass_through():
    with pytest.raises(ValueError):
        build("dp(4, [[1, 3]], 1)")  # odd interval
    with pytest.raises(ValueError):
        build("chain(0)")


def test_glue_length_mismatch():
    with pytest.raises(ValueError, match="rank sets"):
        build("glue([boolean(3)], [[0, 3], [0, 3]])")


# -- flag vectors from the tree --------------------------------------------

# leaves that flag_vector_of builds, with their ranks; the last one fails
GLUED = [
    ("glue([boolean(3), boolean(3)], [[0, 3], [0, 3]])", 3),
    ("glue([dni(chain(4), 2, 3, 2), dni(chain(4), 2, 3, 3)], [[0, 1, 4], [0, 1, 4]])", 4),
    ("lemma2(7, 1)", 8),
    ("lemma3(1)", 7),
    ("lemma3(2)", 7),
    ("glue([boolean(3), chain(3)], [[0, 1, 3], [0, 1, 3]])", 3),
]


@st.composite
def trees(draw, depth=3):
    """(expression, rank) over every node kind; some arguments are out of
    range, so errors are compared too."""
    kinds = ["chain", "boolean", "dp", "glued"]
    if depth:
        kinds += ["dual", "double", "dni", "join"]
    kind = draw(st.sampled_from(kinds))
    if kind in ("chain", "boolean"):
        r = draw(st.integers(1, 4))
        return f"{kind}({r})", r
    if kind == "dp":
        n = draw(st.integers(0, 5))
        # [[1, n]] is odd for odd n, and out of range for n = 0
        intervals = draw(st.sampled_from([(), ((1, n),)] + even_interval_systems(n)))
        text = ",".join(f"[{a},{b}]" for a, b in intervals)
        return f"dp({n}, [{text}], {draw(st.integers(0, 3))})", n + 1
    if kind == "glued":
        return draw(st.sampled_from(GLUED))
    inner, r = draw(trees(depth - 1))
    if kind in ("dual", "double"):
        return f"{kind}({inner})", r
    if kind == "dni":
        low, high = draw(st.integers(0, r)), draw(st.integers(0, r))
        return f"dni({inner}, {low}, {high}, {draw(st.integers(0, 3))})", r
    other, r2 = draw(trees(depth - 1))
    return f"join({inner}, {other})", r + r2 - 1


def sized_flags(node, budget):
    """The level sizes and the flag vector of one plan of the walk."""
    plan = exprs._plan(node, budget)
    return plan.sizes, plan.flags()


def outcome(compute):
    try:
        return compute()
    except (ValueError, BudgetError) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(trees(), st.sampled_from([None, 40, 300]))
def test_tree_path_matches_built_poset(tree, budget):
    node = parse_expression(tree[0])
    expected = outcome(lambda: flag_vector(fresh(build_poset(node, budget=budget))))
    assert outcome(lambda: flag_vector_of(node, budget=budget)) == expected


@settings(max_examples=150, deadline=None)
@given(trees())
def test_handed_dual_table_matches_rebuilt_dual(tree):
    # the dual of a poset holding its table is handed the reversal; a dual
    # rebuilt from the covers computes its own by matrix products
    try:
        poset = build_poset(parse_expression(tree[0]))
        table = flag_vector(poset)
    except (ValueError, BudgetError):
        return
    handed = poset.dual()
    rebuilt = RankedPoset.from_dict(poset.to_dict()).dual()
    assert handed._flags is not None and rebuilt._flags is None
    assert flag_vector(handed) == flag_vector(rebuilt)
    assert flag_vector(handed.dual()) == table


@pytest.mark.parametrize(
    "text",
    [
        "boolean(4)",
        "dual(dni(boolean(3), 1, 1, 2))",
        "double(join(chain(2), boolean(2)))",
        "dp(6, [[1, 4], [3, 6]], 1)",
        "join(dual(dp(2, [[1, 2]], 1)), lemma3(1))",
    ],
)
def test_tree_path_matches_oracle(text):
    poset = build(text)
    counts = oracles.flag_counts(poset.level_sizes, [sorted(c) for c in poset.covers])
    table = flag_vector_of(parse_expression(text))
    assert {frozenset(ranks_from_mask(m)): v for m, v in table.items()} == counts


@pytest.mark.parametrize(
    "text",
    [
        "dni(boolean(5), 1, 2, 3)",  # low = 1
        "dni(boolean(5), 3, 4, 2)",  # high = n
        "dni(dual(boolean(5)), 1, 4, 2)",  # every proper rank
        "dni(boolean(5), 2, 2, 3)",  # low = high
        "dni(boolean(5), 2, 3, 1)",  # copies = 1
        "dni(dni(boolean(4), 1, 1, 2), 3, 3, 3)",
        # 3 * 2^65 maximal chains: an object table
        "dni(double(double(double(double(double(chain(14)))))), 2, 12, 3)",
    ],
)
def test_dni_table_matches_built_flag_vector(text):
    assert flag_vector_of(parse_expression(text)) == flag_vector(fresh(build(text)))


def test_tree_path_builds_no_poset_without_glued_nodes(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("built a poset")

    monkeypatch.setattr(RankedPoset, "__init__", refuse)
    table = flag_vector_of(parse_expression("dual(join(dp(6, [[1, 6]], 2), double(boolean(3))))"))
    assert table.n == 8


@pytest.mark.parametrize(
    "text,chains,dtype",
    [
        # 2^62 - 1 maximal chains, the most the int64 tables allow
        (f"dni(chain(2), 1, 1, {2**62 - 1})", 2**62 - 1, np.int64),
        (f"double(dni(chain(3), 1, 2, {2**60 - 1}))", 2**62 - 4, np.int64),
        (f"dni(chain(2), 1, 1, {2**62})", 2**62, object),
        (f"join(dni(chain(2), 1, 1, {2**32}), dual(dni(chain(2), 1, 1, {2**32})))", 2**64, object),
    ],
)
def test_tree_path_dtype_switches_at_int64_bound(monkeypatch, text, chains, dtype):
    seen = []
    plan = exprs._plan

    def spy(*args):
        inner = plan(*args)
        return inner._replace(table=lambda dt: seen.append(dt) or inner.table(dt))

    monkeypatch.setattr(exprs, "_plan", spy)
    table = flag_vector_of(parse_expression(text), budget=2**70)
    assert set(seen) == {dtype}
    assert table.values[-1] == chains  # every chain meets every rank here
    assert max(table.values) == chains


# -- the paper's families as expression trees -------------------------------


def doubled(glued):
    def build(*args, budget=None):
        return horizontal_double(glued(*args, budget=budget), budget=budget)

    return build


# family -> (the library's builder, the direct construction of tests/oracles.py)
FAMILIES = {
    "dp": (dp_poset, oracles.dp_poset),
    "lemma2": (lemma2_poset, doubled(oracles.lemma2_glued)),
    "lemma3": (lemma3_poset, doubled(oracles.lemma3_glued)),
}

DP_CASES = [
    (n, system, copies)
    for n in range(1, 7)
    for system in even_interval_systems(n)
    for copies in (1, 2)
]


def same_for_every_budget(family, *args):
    """The library and the direct construction give equal posets, or the
    same (exception type, message), for every budget from 1 to the size
    of the poset."""
    tree, direct = FAMILIES[family]
    size = direct(*args).num_elements
    for budget in range(1, size + 1):
        expected = outcome(lambda: direct(*args, budget=budget))
        assert outcome(lambda: tree(*args, budget=budget)) == expected, budget


@pytest.mark.parametrize("n,system,copies", DP_CASES)
def test_dp_tree_matches_direct_construction(n, system, copies):
    direct = oracles.dp_poset(n, system, copies)
    label = ",".join(f"[{a},{b}]" for a, b in system)
    assert dp_poset(n, system, copies) == direct
    assert build(f"dp({n},[{label}],{copies})") == direct
    same_for_every_budget("dp", n, system, copies)


def test_dp_tree_without_the_even_check():
    # a system that fails the even check is built as its primitive tree
    text = "double(dni(chain(5),1,3,2))"

    def direct(budget=None):
        return oracles.dp_poset(4, [(1, 3)], 1, require_even=False, budget=budget)

    assert build(text) == direct()
    for budget in range(1, direct().num_elements + 1):
        expected = outcome(lambda: direct(budget))
        assert outcome(lambda: build_poset(parse_expression(text), budget=budget)) == expected


@pytest.mark.parametrize("n,copies", [(7, 1), (7, 2), (9, 1), (9, 2)])
def test_lemma2_tree_matches_direct_construction(n, copies):
    glued = oracles.lemma2_glued(n, copies)
    assert build_poset(_lemma2_glue(n, copies)) == glued
    assert lemma2_poset(n, copies) == horizontal_double(glued)
    same_for_every_budget("lemma2", n, copies)


@pytest.mark.parametrize("copies", [1, 2, 3])
def test_lemma3_tree_matches_direct_construction(copies):
    glued = oracles.lemma3_glued(copies)
    assert build_poset(_lemma3_glue(copies)) == glued
    assert lemma3_poset(copies) == horizontal_double(glued)
    same_for_every_budget("lemma3", copies)


_FAMILY_ARGUMENT_ERRORS = [
    ("dp", (4, [(1, 3)], 1)),
    ("dp", (4, [(1, 3)], 0)),
    ("dp", (4, [(0, 5)], -1)),
    ("dp", (6, [(1, 4), (2, 3), (1, 4), (4, 5)], 1)),
    ("dp", (4, [(1, 3), (2, 5)], 1)),
    ("lemma2", (6, 0)),
    ("lemma2", (5, 2)),
    ("lemma2", (7, 0)),
    ("lemma2", (9, -3)),
    ("lemma3", (0,)),
    ("lemma3", (-2,)),
]


# the ids the cases have always had: pytest generated them from a third
# column of keyword arguments, since removed
@pytest.mark.parametrize(
    "family,args",
    _FAMILY_ARGUMENT_ERRORS,
    ids=[f"{family}-args{k}-kwargs{k}" for k, (family, _) in enumerate(_FAMILY_ARGUMENT_ERRORS)],
)
def test_family_argument_errors_match_direct_construction(family, args):
    tree, direct = FAMILIES[family]
    # the arguments are checked before any budget
    for budget in (None, 1):
        expected = outcome(lambda: direct(*args, budget=budget))
        assert expected[0] is ValueError
        assert outcome(lambda: tree(*args, budget=budget)) == expected


@pytest.mark.parametrize("text", ["lemma2(7, 2)", "lemma3(3)", "join(boolean(2), lemma3(2))"])
def test_tree_path_builds_only_glue(monkeypatch, text):
    node = parse_expression(text)
    expected = flag_vector(fresh(build_poset(node)))

    def refuse(*args, **kwargs):
        raise AssertionError("built a poset outside glue")

    for name in ("horizontal_double", "join", "boolean"):
        monkeypatch.setattr(exprs, name, refuse)
    assert flag_vector_of(node) == expected


# -- glues from their parts ---------------------------------------------------


@st.composite
def glue_parts(draw, rank, depth=2):
    """A part of the given rank from chain, boolean, double, dni and dual."""
    if depth == 0 or draw(st.booleans()):
        leaves = [f"chain({rank})", f"boolean({rank})"]
        return draw(st.sampled_from(leaves if rank < 5 else leaves[:1]))
    kind = draw(st.sampled_from(["double", "dni", "dual"]))
    inner = draw(glue_parts(rank, depth - 1))
    if kind == "dni":
        low = draw(st.integers(1, rank - 1))
        high = draw(st.integers(low, rank - 1))
        return f"dni({inner}, {low}, {high}, {draw(st.integers(1, 3))})"
    return f"{kind}({inner})"


def twins(rank):
    """Parts with level sizes 1, 2, ..., 2, 1 whose copies are linked
    across all proper ranks, across none, or apart between ranks 1 and 2."""
    return [
        f"dni(chain({rank}), 1, {rank - 1}, 2)",
        f"double(chain({rank}))",
        f"dni(dni(chain({rank}), 1, 1, 2), 2, {rank - 1}, 2)",
    ]


@st.composite
def bare_glues(draw):
    """(parts, glue sets) of a glue of 2-4 parts.  Parts are drawn from two
    expressions, so that repeats glue consistently: two random parts,
    whose level sizes often differ, or two twins, which often disagree on
    comparabilities (the split twin needs rank 3).  Every glue set is one
    set with at most one rank flipped, so the glue sets fall on both sides
    of the one-run condition."""
    rank = draw(st.integers(2, 5))
    if rank > 2 and draw(st.booleans()):
        pool = draw(st.lists(st.sampled_from(twins(rank)), min_size=2, max_size=2))
    else:
        pool = [draw(glue_parts(rank)), draw(glue_parts(rank))]
    inner = st.integers(1, rank - 1)
    common = {0, rank} | draw(st.sets(inner))
    parts, sets = [], []
    for _ in range(draw(st.integers(2, 4))):
        parts.append(draw(st.sampled_from(pool)))
        sets.append(sorted(common ^ draw(st.sets(inner, max_size=1))))
    return parts, sets


@st.composite
def glue_trees(draw):
    """A glue of :func:`bare_glues`, maybe under a double, dual or join."""
    parts, sets = draw(bare_glues())
    tree = f"glue([{', '.join(parts)}], {sets})"
    wrap = draw(
        st.sampled_from(["{}", "double({})", "dual({})", "join({}, chain(2))", "join(boolean(2), {})"])
    )
    return wrap.format(tree)


@settings(max_examples=300, deadline=None)
@given(glue_trees(), st.sampled_from([None, 12, 40, 150]))
def test_glue_from_its_parts_matches_the_built_glue(tree, budget):
    node = parse_expression(tree)

    def built():
        poset = build_poset(node, budget=budget)
        return list(poset.level_sizes), flag_vector(fresh(poset))

    assert outcome(lambda: sized_flags(node, budget)) == outcome(built)


@pytest.mark.parametrize(
    "text,from_parts",
    [
        ("glue([boolean(3), boolean(3)], [[0, 3], [0, 3]])", True),
        ("glue([boolean(4), boolean(4)], [[0, 1, 2, 3, 4], [0, 1, 2, 3, 4]])", True),
        ("glue([boolean(4), boolean(4), chain(4)], [[0, 1, 4], [0, 1, 4], [0, 4]])", True),
        (
            "double(glue([dni(chain(5), 2, 3, 2), dni(chain(5), 2, 2, 3)], [[0, 1, 4, 5], [0, 1, 4, 5]]))",
            True,
        ),
        ("lemma2(9, 2)", True),
        ("lemma3(2)", True),
        # part 0's rank 1, shared rank 2, part 1's rank 3: outside both, ranks 1 and 3
        ("glue([boolean(4), boolean(4)], [[0, 2, 4], [0, 2, 4]])", False),
        ("glue([boolean(4), boolean(4), boolean(4)], [[0, 1, 4], [0, 1, 4], [0, 3, 4]])", True),
        (
            "glue([boolean(4), boolean(4), boolean(4)], [[0, 1, 2, 4], [0, 1, 2, 4], [0, 2, 4]])",
            False,
        ),
        (
            "dual(glue([dni(chain(5), 1, 4, 2), dni(chain(5), 1, 4, 2)], [[0, 2, 5], [0, 2, 5]]))",
            False,
        ),
    ],
)
def test_glue_is_built_only_when_a_chain_can_cross_parts(monkeypatch, text, from_parts):
    node = parse_expression(text)
    expected = build_poset(node)
    builds = []
    glued = exprs._glued

    def spy(layout, posets):
        builds.append(layout)
        return glued(layout, posets)

    monkeypatch.setattr(exprs, "_glued", spy)
    sizes, table = sized_flags(node, None)
    assert (sizes, table) == (list(expected.level_sizes), flag_vector(fresh(expected)))
    assert len(builds) == (0 if from_parts else 1)
    # either way the poset is built once
    builds.clear()
    assert build_poset(node) == expected
    assert len(builds) == 1


@pytest.mark.parametrize(
    "sets,one_run",
    [
        ([{0, 3}], True),
        ([{0, 1, 2, 3}, {0, 1, 2, 3}], True),  # nothing outside
        ([{0, 1, 6, 7}, {0, 1, 6, 7}], True),  # lemma3
        ([{0, 1, 2, 6, 7, 8}, {0, 1, 2, 6, 7, 8}, {0, 8}], True),  # lemma2(7, N)
        ([{0, 2, 4}, {0, 2, 4}], False),
        ([{0, 1, 4}, {0, 1, 4}, {0, 3, 4}], True),
        ([{0, 1, 2, 4}, {0, 1, 2, 4}, {0, 2, 4}], False),  # parts 0 and 2 miss 1 and 3
        ([{0, 1, 2, 5}, {0, 3, 4, 5}], True),
        ([{0, 2, 5}, {0, 3, 5}], True),
        ([{0, 2, 5}, {0, 2, 3, 5}, {0, 3, 5}], False),  # parts 0 and 1 miss 1, 3 and 4
        ([{0, 1, 3, 5}, {0, 3, 5}], False),
    ],
)
def test_one_run_condition(sets, one_run):
    assert exprs._chains_stay_in_parts([frozenset(s) for s in sets]) == one_run


def test_corpus_names_build_their_posets(corpus):
    for name, poset in corpus:
        assert build_poset(parse_expression(name)) == poset, name


# -- the grammar table and the one walk ------------------------------------

# bases for the mutated expressions: every constructor and argument kind
MUTATION_BASES = [
    "chain(4)",
    "boolean(3)",
    "dual(double(chain(3)))",
    "dni(chain(5), 1, 4, 3)",
    "join(boolean(2), dual(chain(2)))",
    "dp(6, [[1, 4], [3, 6]], 2)",
    "dp(4, [], 1)",
    "lemma2(7, 2)",
    "lemma3(2)",
    "glue([boolean(3), chain(3)], [[0, 1, 3], [], [0, 3]])",
] + [text for text, _ in GLUED]

# pieces inserted into the bases: tokens, fragments and characters the
# tokenizer refuses
MUTATION_PIECES = [
    "(", ")", "[", "]", ",", " ", "0", "12", "x", "$", "_a", "frob",
    "chain(", "glue([", "dp(", "[[1,2]]", "[1,2,3]", ",[]", "lemma3", "dual(",
    "[]", "glue([], [[0, 1]])", "glue([chain(2)], [])",
]


def mutate(rng, text):
    """One to three edits: delete a character, insert a piece, repeat a
    span, delete a span, cut the rest, or swap two neighbours."""
    for _ in range(rng.randint(1, 3)):
        pos = rng.randint(0, len(text))
        end = rng.randint(pos, len(text))
        move = rng.randrange(6)
        if move == 0:
            text = text[:pos] + text[pos + 1:]
        elif move == 1:
            text = text[:pos] + rng.choice(MUTATION_PIECES) + text[pos:]
        elif move == 2:
            text = text[:end] + text[pos:end] + text[end:]
        elif move == 3:
            text = text[:pos] + text[end:]
        elif move == 4:
            text = text[:pos]
        else:
            text = text[:pos] + text[pos + 1:pos + 2] + text[pos:pos + 1] + text[pos + 2:]
    return text


def parsed(parse, text):
    try:
        return parse(text)
    except ExpressionError as exc:
        return type(exc), str(exc), exc.position


def test_parser_matches_the_hand_written_parser_on_mutated_expressions(corpus):
    rng = random.Random(8)
    bases = MUTATION_BASES + [name for name, _ in corpus]
    results = collections.Counter()
    for _ in range(12_000):
        text = mutate(rng, rng.choice(bases))
        expected = parsed(oracles.parse_expression, text)
        assert parsed(parse_expression, text) == expected, text
        results[expected[1].split(" at offset")[0] if type(expected) is tuple else "ok"] += 1
    # both outcomes, and the parser's every kind of diagnostic, are exercised
    assert results["ok"] > 300
    for fragment in (
        "unknown constructor", "expected an integer", "expected ')'", "expected ','",
        "expected '['", "expected ']'", "trailing input", "unexpected character",
        "expected a constructor name", "expected an interval",
    ):
        assert any(fragment in key for key in results), fragment


def test_module_docstring_grammar_is_the_table():
    block = exprs.__doc__.split("::\n\n")[1].split("\n\n")[0]
    lines = " ".join(line.split("#")[0] for line in block.splitlines())
    alternatives = lines.replace("expr :=", "").split("|")
    assert sorted(alt.strip() for alt in alternatives) == sorted(
        f"{name}({', '.join(kinds)})" for name, kinds in exprs._GRAMMAR.items()
    )


@pytest.mark.parametrize(
    "text,nodes",
    [
        ("chain(3)", 1),
        ("boolean(3)", 1),
        ("dual(boolean(3))", 2),
        ("double(chain(3))", 2),
        ("dni(chain(5), 1, 4, 3)", 2),
        ("join(boolean(2), chain(2))", 3),
        ("glue([boolean(3), boolean(3)], [[0, 3], [0, 3]])", 3),
        ("dp(4, [[1, 2], [3, 4]], 2)", 4),  # double, two dni, chain
        ("lemma2(7, 2)", 13),  # double, glue, parts of 5, 4 and 2 nodes
        ("lemma3(2)", 8),  # double, glue, two parts of 3 nodes
    ],
)
def test_build_and_flags_walk_each_expanded_node_once(monkeypatch, text, nodes):
    node = parse_expression(text)
    expected = build_poset(node)
    calls = []
    plan = exprs._plan

    def spy(*args):
        calls.append(args[0].kind)
        return plan(*args)

    def refuse(*args, **kwargs):
        raise AssertionError("the walk called build_poset")

    monkeypatch.setattr(exprs, "_plan", spy)
    assert build_poset(node) == expected
    assert len(calls) == nodes
    monkeypatch.setattr(exprs, "build_poset", refuse)
    calls.clear()
    assert flag_vector_of(node) == flag_vector(fresh(expected))
    assert len(calls) == nodes


def nested_duals(depth):
    """``depth`` constructors, each nested in the one before."""
    return "dual(" * (depth - 1) + "chain(2)" + ")" * (depth - 1)


def nested_glues(depth):
    return "glue([" * (depth - 1) + "chain(2)" + "], [[0, 2]])" * (depth - 1)


def dp_of(intervals):
    """dp with that many intervals, whose expanded tree is two deeper."""
    pairs = ",".join(f"[{2 * i + 1},{2 * i + 2}]" for i in range(intervals))
    return f"dp({2 * intervals},[{pairs}],1)"


@pytest.mark.parametrize("nested", [nested_duals, nested_glues])
def test_nesting_limit_in_the_source(nested):
    limit = exprs._MAX_DEPTH
    assert build(nested(limit)) == chain(2)
    assert flag_vector_of(parse_expression(nested(limit))) == flag_vector(chain(2))
    text = nested(limit + 1)
    with pytest.raises(ExpressionError) as err:
        parse_expression(text)
    assert str(err.value) == f"expression nests more than {limit} levels deep at offset {err.value.position}"
    # the first constructor past the limit, the innermost chain
    assert err.value.position == text.index("chain")


def test_nesting_limit_in_the_expanded_tree():
    limit = exprs._MAX_DEPTH
    message = f"expression nests more than {limit} levels deep once dp, lemma2 and lemma3 are expanded"
    assert build(dp_of(limit - 2)).rank == 2 * (limit - 2) + 1
    with pytest.raises(ValueError) as err:
        build(dp_of(limit - 1))
    assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        flag_vector_of(parse_expression(dp_of(limit - 1)))
    assert str(err.value) == message
    # a dp one level below the limit in the source is too deep once expanded
    with pytest.raises(ValueError, match="once dp"):
        build(nested_duals(limit - 1).replace("chain(2)", "dp(2,[[1,2]],1)"))


# -- the Eulerian test from the tree ------------------------------------------


def _violation_tuple(result):
    v = result.violation
    if v is None:
        return None
    return (v.rank_low, v.index_low, v.rank_high, v.index_high, v.even_count, v.odd_count)


@settings(max_examples=400, deadline=None)
@given(st.one_of(trees().map(lambda tree: tree[0]), glue_trees()), st.sampled_from([None, 40, 300]))
def test_eulerian_of_matches_the_built_test(text, budget):
    # the verdict, the first violation's ranks and indices and its counts,
    # or the same error; small posets against the oracle too
    node = parse_expression(text)
    got = outcome(lambda: eulerian_of(node, budget=budget))
    try:
        poset = build_poset(node, budget=budget)
    except (ValueError, BudgetError) as exc:
        assert got == (type(exc), str(exc))
        return
    assert got == fresh(poset).is_eulerian()
    if poset.num_elements <= 40:
        covers = [sorted(level) for level in poset.covers]
        assert _violation_tuple(got) == oracles.first_violation(list(poset.level_sizes), covers)


@st.composite
def ranked_trees(draw, rank, depth=2):
    """A tree of the given rank, at least 2, from chain, boolean, dni and
    join, and glues of two parts whose sums hold matrices: glued at 0 and
    the top only, or a part glued to itself at one more rank, whose chains
    cross parts."""
    kinds = ["chain", "boolean"] if rank <= 4 else ["chain"]
    if depth:
        kinds += ["dni", "join", "glue"] if rank >= 3 else ["dni", "glue"]
    kind = draw(st.sampled_from(kinds))
    if kind in ("chain", "boolean"):
        return f"{kind}({rank})"
    if kind == "glue":
        first = draw(ranked_trees(rank, depth - 1))
        if rank >= 4 and draw(st.booleans()):
            middle = draw(st.integers(2, rank - 2))
            return f"glue([{first}, {first}], [[0, {middle}, {rank}], [0, {middle}, {rank}]])"
        return f"glue([{first}, {draw(ranked_trees(rank, depth - 1))}], [[0, {rank}], [0, {rank}]])"
    if kind == "dni":
        low = draw(st.integers(1, rank - 1))
        high = draw(st.integers(low, rank - 1))
        inner = draw(ranked_trees(rank, depth - 1))
        return f"dni({inner}, {low}, {high}, {draw(st.integers(1, 3))})"
    left = draw(st.integers(2, rank - 1))
    return f"join({draw(ranked_trees(left, depth - 1))}, {draw(ranked_trees(rank - left + 1, depth - 1))})"


@st.composite
def one_run_glues(draw):
    """(glue, rank, glue sets): 2-3 parts, each glued at a prefix and a
    suffix of the ranks, {0..a} and {b..rank}, every a below every b, so
    that for every two parts the ranks outside both glue sets form one run.  A part glued at 0 and the top
    only is any tree of the rank; the others are one base tree replicated
    only strictly between their own a and b, which keeps the levels that
    they glue at with each other, and the comparabilities between them."""
    rank = draw(st.integers(2, 5))
    base = draw(ranked_trees(rank))
    cut = draw(st.integers(1, rank))
    parts, sets = [], []
    for _ in range(draw(st.integers(2, 3))):
        a = draw(st.integers(0, cut - 1))
        b = draw(st.integers(cut, rank))
        if (a, b) == (0, rank):
            part = draw(ranked_trees(rank))
        else:
            part = base
            for _ in range(draw(st.integers(0, 2)) if b - a >= 2 else 0):
                low = draw(st.integers(a + 1, b - 1))
                high = draw(st.integers(low, b - 1))
                part = f"dni({part}, {low}, {high}, {draw(st.integers(1, 3))})"
        parts.append(part)
        sets.append(list(range(a + 1)) + list(range(b, rank + 1)))
    return f"glue([{', '.join(parts)}], {sets})", rank, sets


@st.composite
def wrapped_one_run_glues(draw):
    glue_text, rank, _ = draw(one_run_glues())
    low = draw(st.integers(1, rank - 1))
    high = draw(st.integers(low, rank - 1))
    wrap = draw(
        st.sampled_from(
            [
                "{}",
                "double({})",
                "dual({})",
                f"dni({{}}, {low}, {high}, {draw(st.integers(2, 3))})",
                "join({}, boolean(2))",
                "join(chain(3), dual({}))",
                f"join(boolean(3), dni({{}}, {low}, {high}, 2))",
            ]
        )
    )
    return wrap.format(glue_text)


@settings(max_examples=300, deadline=None)
@given(wrapped_one_run_glues())
def test_eulerian_of_one_run_glues_matches_the_built_test(text):
    # the glue's sums come from its parts: the same verdict and the same
    # first violation with the same counts as the built poset
    node = parse_expression(text)
    poset = build_poset(node)
    got = eulerian_of(node)
    assert got == fresh(poset).is_eulerian()
    if poset.num_elements <= 40:
        covers = [sorted(level) for level in poset.covers]
        assert _violation_tuple(got) == oracles.first_violation(list(poset.level_sizes), covers)


@settings(max_examples=200, deadline=None)
@given(one_run_glues(), st.data())
def test_one_run_glue_sums_match_the_built_glue(glue_tree, data):
    # entry by entry, for random integer weights, in each dtype of the
    # test; an int is 0 and stands for an all-zero matrix
    text, rank, sets = glue_tree
    assert exprs._chains_stay_in_parts([frozenset(s) for s in sets])
    plan = exprs._plan(parse_expression(text), None)
    poset = plan.poset()
    covers = [sorted(level) for level in poset.covers]
    for r1 in range(rank):
        for r2 in range(r1 + 1, rank + 1):
            c = data.draw(st.lists(st.integers(-3, 3), min_size=rank + 1, max_size=rank + 1))
            dtype = data.draw(st.sampled_from([np.float32, np.float64, object]))
            got = plan.sums(r1, r2, c, dtype)
            want = poset._interval_sums(r1, r2, c, dtype)
            if isinstance(got, np.ndarray):
                assert got.dtype == want.dtype and np.array_equal(got, want)
            else:
                assert got == 0 and not want.any()
            if poset.num_elements <= 40:
                expected = oracles.interval_sums(list(poset.level_sizes), covers, r1, r2, c)
                assert want.tolist() == expected


@pytest.mark.parametrize("glue_node", [_lemma2_glue(7, 2), _lemma3_glue(3)])
def test_lemma_glue_sums_match_the_built_glue(glue_node):
    # every rank pair, under the alternating weights and under those that a
    # dni(., 2, 5, 2) above the glue passes down, in every dtype of the
    # test; some pair has two or more nonzero blocks
    plan = exprs._plan(glue_node, None)
    poset = plan.poset()
    parts, rank_sets = glue_node.args
    part_plans = [exprs._plan(part, None) for part in parts]
    layout = _glue_layout(
        [(p.sizes, p.compare, ranks) for p, ranks in zip(part_plans, rank_sets)]
    )
    # each block of level r as the range of its indices
    spans = []
    for level, size in zip(layout.blocks, layout.sizes):
        starts = [x for x, _ in level] + [size]
        spans.append(list(zip(starts, starts[1:])))
    rank = poset.rank
    most_blocks = 0
    for r1 in range(rank):
        for r2 in range(r1 + 1, rank + 1):
            signs = [(-1) ** (r - r1) for r in range(rank + 1)]
            replicated = signs
            if not (2 <= r1 <= 5 or 2 <= r2 <= 5):
                replicated = [2 * w if 2 <= r <= 5 else w for r, w in enumerate(signs)]
            for c in signs, replicated:
                for dtype in np.float32, np.float64, object:
                    got = plan.sums(r1, r2, c, dtype)
                    want = poset._interval_sums(r1, r2, c, dtype)
                    if isinstance(got, np.ndarray):
                        assert got.dtype == want.dtype and np.array_equal(got, want)
                    else:
                        assert got == 0 and not want.any()
                nonzero = sum(
                    want[x0:x1, y0:y1].any() for x0, x1 in spans[r1] for y0, y1 in spans[r2]
                )
                most_blocks = max(most_blocks, nonzero)
    assert most_blocks >= 2


def _subtrees(node):
    yield node
    for arg in node.args:
        for child in arg if isinstance(arg, tuple) else (arg,):
            if isinstance(child, exprs.Node):
                yield from _subtrees(child)


def _replaced(node, target, leaf):
    """``node`` with the subtree ``target`` (that object) replaced by ``leaf``."""
    if node is target:
        return leaf

    def swap(arg):
        if isinstance(arg, exprs.Node):
            return _replaced(arg, target, leaf)
        if isinstance(arg, tuple):
            return tuple(swap(item) for item in arg)
        return arg

    return exprs.Node(node.kind, tuple(swap(arg) for arg in node.args))


@contextlib.contextmanager
def json_leaves():
    """A walk that also reads ``Node("json", (text,))``: the poset of a
    JSON file, as the CLI loads one, a built leaf (``_built_plan``)."""
    walk = exprs._plan

    def plan(node, budget, depth=1):
        if node.kind == "json":
            return exprs._built_plan(RankedPoset.from_dict(json.loads(node.args[0])))
        return walk(node, budget, depth)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exprs, "_plan", plan)
        yield


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(trees().map(lambda tree: tree[0]), glue_trees(), wrapped_one_run_glues()),
    st.data(),
)
def test_compare_is_the_built_comparability(text, data):
    # every node kind's closed form, and a JSON-style built leaf put in for
    # a random subtree, against the rows carried up the built poset
    node = parse_expression(text)
    if data.draw(st.booleans()):
        target = data.draw(st.sampled_from(list(_subtrees(node))))
        try:
            built = build_poset(target)
        except (ValueError, BudgetError):
            return
        node = _replaced(node, target, exprs.Node("json", (json.dumps(built.to_dict()),)))
    with json_leaves():
        try:
            plan = exprs._plan(node, None)
            poset = plan.poset()
        except (ValueError, BudgetError):
            return
    assert plan.sizes == list(poset.level_sizes)
    for r1 in range(poset.rank):
        for r2 in range(r1 + 1, poset.rank + 1):
            got = plan.compare(r1, r2)
            assert got.dtype == bool
            assert np.array_equal(got, _comparability_rows(poset, r1, r2)), (r1, r2)


@settings(max_examples=300, deadline=None)
@given(bare_glues(), st.data())
def test_glue_errors_are_the_same_on_plans_posets_and_the_library_glue(glue_parts, data):
    # mismatched level sizes and parts that disagree between shared levels:
    # the walk on the parts' plans, build and constructions.glue over the
    # built parts raise the same error, or give the same glue
    parts, sets = glue_parts
    node = parse_expression(f"glue([{', '.join(parts)}], {sets})")
    posets = [build(part) for part in parts]
    on_plans = outcome(lambda: exprs._plan(node, None).sizes)
    built = outcome(lambda: build_poset(node))
    library = outcome(lambda: glue(list(zip(posets, sets))))
    if isinstance(built, RankedPoset):
        assert on_plans == list(built.level_sizes)
        assert library == built
    else:
        assert on_plans == built == library
    # an invalid part, which only the library takes, is refused first, in
    # part order, before any size or comparability check
    bad = data.draw(st.sets(st.integers(0, len(posets) - 1), min_size=1))
    for k in bad:
        p = posets[k]
        covers = [cs.tolist() for cs in p.cover_arrays]
        covers[0].append([0, p.level_sizes[1]])  # out of range
        posets[k] = RankedPoset(p.rank, p.level_sizes, covers)
    first = posets[min(bad)]
    expected = (ValueError, "invalid poset: " + "; ".join(first.validate()))
    assert outcome(lambda: glue(list(zip(posets, sets)))) == expected


# the glue's first violation is at index 3 of rank 2, the chain part's
# element there; the glue is replicated, dualized and joined
_GLUE_WITH_A_CHAIN = "glue([boolean(3), chain(3)], [[0, 3], [0, 3]])"


@pytest.mark.parametrize(
    "text",
    [
        f"dni({_GLUE_WITH_A_CHAIN}, 1, 2, 3)",
        f"dual(dni({_GLUE_WITH_A_CHAIN}, 1, 1, 2))",
        f"join(dual({_GLUE_WITH_A_CHAIN}), double(chain(3)))",
        f"join(boolean(3), dni({_GLUE_WITH_A_CHAIN}, 2, 2, 2))",
        "dni(lemma2(7,2),2,5,2)",
        "dual(dni(boolean(4),1,2,3))",
    ],
)
def test_eulerian_of_reports_copy_0_of_the_first_violation(text):
    # copy 0 of every replicated element keeps its index in the quotient
    node = parse_expression(text)
    result = fresh(build_poset(node)).is_eulerian()
    assert not result.eulerian
    assert eulerian_of(node) == result


@pytest.mark.parametrize(
    "text",
    [
        f"dni({_GLUE_WITH_A_CHAIN}, 1, 1, {{}})",
        f"join(dni(lemma3(2), 2, 2, {{}}), {_GLUE_WITH_A_CHAIN})",
        f"dual(join({_GLUE_WITH_A_CHAIN}, dni(boolean(3), 1, 2, {{}})))",
    ],
)
def test_eulerian_of_counts_copies_past_int64(text):
    # an interval's counts are affine in the copies N; below 2^53 elements
    # at the root the sums are float64, from there on Python integers.  A
    # weight that is not a power of two (2^40 + 1, 3^30) is exact only once
    # the glue's float32 count is in the root's dtype
    def violation(copies):
        return _violation_tuple(eulerian_of(parse_expression(text.format(copies)), budget=10**40))

    small = [violation(2), violation(3)]
    assert small == [
        _violation_tuple(fresh(build(text.format(copies))).is_eulerian()) for copies in (2, 3)
    ]
    for copies in 2**40, 2**40 + 1, 3**30, 2**61, 2**70:
        counts = tuple(a + (copies - 2) * (b - a) for a, b in zip(small[0][4:], small[1][4:]))
        assert violation(copies) == small[0][:4] + counts


def _cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, deadline=None)
@given(st.one_of(trees().map(lambda tree: tree[0]), glue_trees()))
def test_check_eulerian_keeps_the_exit_contract(text):
    # exit 0, 1 or 2 with at most one error line; an expression that
    # builds gives the output of its poset checked as a file
    budget = ["--max-elements", "300"]
    code, out, err = _cli("check-eulerian", text, *budget)
    assert code in (0, 1, 2)
    assert err == "" or (err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"))
    try:
        build_poset(parse_expression(text), budget=300)
    except (ValueError, BudgetError):
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "poset.json")
        assert _cli("build", text, *budget, "-o", path) == (0, "", "")
        assert _cli("check-eulerian", path, *budget)[:2] == (code, out)


# -- a built poset keeps its walk ---------------------------------------------

# part 0's rank 1, shared rank 2, part 1's rank 3: a glue whose chains cross parts
_CROSSING = "glue([boolean(4), boolean(4)], [[0, 2, 4], [0, 2, 4]])"


@settings(max_examples=200, deadline=None)
@given(st.one_of(trees().map(lambda tree: tree[0]), glue_trees()))
def test_walk_of_a_built_poset_matches_its_walk_free_copy(text):
    # the built poset reads its table and its Eulerian test from the walk
    # that built it, a copy without the walk from matrix products; a root
    # that is a built leaf keeps no walk
    node = parse_expression(text)
    try:
        poset = build_poset(node, budget=300)
    except (ValueError, BudgetError):
        return
    assert (poset._walk is None) == exprs._plan(node, 300).leaf
    copy = fresh(poset)
    assert outcome(lambda: flag_vector(poset)) == outcome(lambda: flag_vector(copy))
    if poset._flags is not None:
        assert poset._flags.array.dtype == copy._flags.array.dtype
    assert poset.is_eulerian() == copy.is_eulerian()


def test_crossing_glue_root_keeps_no_walk():
    # its walk's table and sums would read the poset itself, without end
    poset = build(_CROSSING)
    assert poset._walk is None
    copy = fresh(poset)
    assert flag_vector(poset) == flag_vector(copy)
    assert poset.is_eulerian() == copy.is_eulerian()
    assert not poset.is_eulerian()
    # above it, the walk reads the glue as a built leaf
    for text in (f"dni({_CROSSING}, 1, 2, 1)", f"dual(dual({_CROSSING}))"):
        above = build(text)
        assert above._walk is not None and above == poset
        assert flag_vector(above) == flag_vector(copy)
        assert above.is_eulerian() == copy.is_eulerian()


def test_a_kept_walk_holds_no_poset_but_its_built_leaves():
    def alive():
        gc.collect()
        return sum(isinstance(o, RankedPoset) for o in gc.get_objects())

    before = alive()
    # lemma2's and lemma3's glues are built for the poset and then dropped
    kept = [build("lemma3(2)"), build("dual(join(lemma2(7, 1), boolean(2)))")]
    assert alive() == before + 2
    # a glue whose chains cross parts is a built leaf of the walk above it
    kept.append(build(f"double({_CROSSING})"))
    assert alive() == before + 4
