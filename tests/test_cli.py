"""Exercises the command line interface through ``main(argv)``.

Exit-code contract: 0 success, 1 failed mathematical check, 2 usage error.
"""

import contextlib
import io
import itertools
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cdposets
from cdposets import (
    CdPolynomial,
    FlagVector,
    LVector,
    RankedPoset,
    cd_from_l,
    cli,
    exprs,
    flag_vector,
    inequality_f_form,
    inequality_pairs,
    l_vector,
    limit_l_vector,
)
from cdposets.cli import _json_text, _load_poset_file, main
from cdposets.corpus import eulerian_corpus
from cdposets.exprs import build_poset, flag_vector_of, parse_expression
from cdposets.flags import cd_words
from cdposets.subsets import subset_label, subset_labels

import oracles


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


def test_build_prints_poset_json(run):
    code, out, _ = run("build", "chain(2)")
    assert code == 0
    data = json.loads(out)
    assert data["rank"] == 2
    assert data["level_sizes"] == [1, 1, 1]


def test_build_output_file_round_trips(run, tmp_path):
    target = tmp_path / "poset.json"
    code, out, _ = run("build", "dp(4,[[1,4]],2)", "-o", str(target))
    assert code == 0 and out == ""
    code, from_file, _ = run("cd-index", str(target))
    assert code == 0
    code, from_expr, _ = run("cd-index", "dp(4,[[1,4]],2)")
    assert code == 0
    assert from_file == from_expr


def test_cd_index_json(run):
    code, out, _ = run("cd-index", "boolean(3)")
    assert code == 0
    assert json.loads(out) == {"n": 2, "terms": {"cc": 1, "d": 1}}


def test_cd_index_table(run):
    code, out, _ = run("cd-index", "boolean(3)", "--format", "table")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["word", "coefficient"]
    assert lines[2].split() == ["cc", "1"]
    assert lines[3].split() == ["d", "1"]


def test_flags_json(run):
    code, out, _ = run("flags", "boolean(3)")
    assert code == 0
    assert json.loads(out) == {"[]": "1", "[1]": "3", "[2]": "3", "[1,2]": "6"}


def test_l_vector_json_exact_rationals(run):
    code, out, _ = run("l-vector", "boolean(3)")
    assert code == 0
    assert json.loads(out) == {"n": 2, "entries": {"[]": "3/2", "[1,2]": "-1/2"}}


def test_check_eulerian_pass(run):
    code, out, _ = run("check-eulerian", "boolean(4)")
    assert code == 0
    assert json.loads(out) == {"eulerian": True}


def test_check_eulerian_failure_reports_interval(run):
    code, out, _ = run("check-eulerian", "chain(3)")
    assert code == 1
    data = json.loads(out)
    assert data["eulerian"] is False
    assert data["interval"] == {
        "low": [0, 0],
        "high": [2, 0],
        "even_count": 2,
        "odd_count": 1,
    }


def test_check_eulerian_file_reports_same_violation(run, tmp_path):
    # a poset file takes the same kernel path as the expression
    expr = "dni(boolean(5),2,4,2)"
    target = tmp_path / "p.json"
    assert run("build", expr, "-o", str(target))[0] == 0
    from_file = run("check-eulerian", str(target))
    from_expr = run("check-eulerian", expr)
    assert from_file == from_expr
    code, out, _ = from_file
    assert code == 1
    assert json.loads(out)["interval"] == {
        "low": [0, 0],
        "high": [5, 0],
        "even_count": 31,
        "odd_count": 26,
    }


def test_cd_index_of_chain_fails_with_explanation(run):
    code, out, err = run("cd-index", "chain(4)")
    assert code == 1
    assert out == ""
    assert "error:" in err and "non-even rank set" in err


def test_check_inequality_all_clean(run):
    code, out, _ = run("check-inequality", "boolean(4)", "--all")
    assert code == 0
    data = json.loads(out)
    assert data["violations"] == []
    assert data["pairs"] == sum(1 for _ in inequality_pairs(3))


def test_check_inequality_single_violation(run):
    code, out, _ = run("check-inequality", "chain(3)", "--T", "[1]", "--V", "[1]")
    assert code == 1
    data = json.loads(out)
    assert data["nonnegative"] is False
    assert data["f_form"] == "-1"


def test_check_inequality_bad_subset_is_usage_error(run):
    code, out, err = run("check-inequality", "boolean(4)", "--T", "x", "--V", "[1]")
    assert code == 2
    assert out == ""
    assert err == "error: bad subset 'x': invalid literal for int() with base 10: 'x'\n"


def test_check_inequality_rejects_boolean_ranks(run):
    code, out, err = run("check-inequality", "boolean(3)", "--T", "[true]", "--V", "[1]")
    assert code == 2
    assert out == ""
    assert err == "error: bad subset '[true]': expected a list of ints\n"


def test_check_inequality_needs_a_mode(run):
    code, _, err = run("check-inequality", "boolean(3)")
    assert code == 2
    assert "--all" in err


@pytest.mark.parametrize(
    "extra", [["--T", "[1]", "--V", "[1]"], ["--T", "[1]"], ["--V", "[1]"]]
)
def test_check_inequality_all_refuses_a_pair(run, extra):
    assert run("check-inequality", "boolean(3)", "--all", *extra) == (
        2, "", "error: provide either --all or both --T and --V\n"
    )


def test_check_inequality_all_builds_l_forms_for_violations_only(run, monkeypatch):
    from cdposets import cli

    made = []
    printer = cli._dyadic_str

    def counted(*args):
        made.append(args)
        return printer(*args)

    monkeypatch.setattr(cli, "_dyadic_str", counted)
    code, out, _ = run("check-inequality", "chain(4)", "--all")
    data = json.loads(out)
    assert code == 1
    assert 0 < len(made) == len(data["violations"]) < data["pairs"]


def test_limit_l_json(run):
    code, out, _ = run("limit-l", "--n", "4", "--intervals", "[[1,4]]")
    assert code == 0
    assert json.loads(out) == {"n": 4, "entries": {"[]": 1, "[1,2,3,4]": -1}}


def _ranks(low, high):
    return "[" + ",".join(map(str, range(low, high + 1))) + "]"


@pytest.mark.parametrize(
    "intervals,entries",
    [
        ([[1, 50]], {"[]": 1, _ranks(1, 50): -1}),
        ([[1, 70]], {"[]": 1, _ranks(1, 70): -1}),
        (
            [[1, 64], [63, 100]],
            {"[]": 1, _ranks(1, 64): -1, _ranks(63, 100): -1, _ranks(1, 100): 1},
        ),
    ],
    ids=["[1,50]", "[1,70]", "[1,64],[63,100]"],
)
def test_limit_l_intervals_past_62_ranks(run, intervals, entries):
    text = json.dumps({"entries": entries, "n": 100}, sort_keys=True, indent=2) + "\n"
    argv = ["limit-l", "--n", "100", "--intervals", json.dumps(intervals)]
    assert run(*argv) == (0, text, "")


def _limit_json(n, entries):
    return json.dumps({"entries": entries, "n": n}, sort_keys=True, indent=2) + "\n"


def test_limit_l_table_bound(run, monkeypatch):
    from cdposets import analysis

    # ten intervals at rank 2^20 + 1 leave two unions of 2^20 + 1 bits
    top = (1 << 20) + 1
    argv = ["limit-l", "--n", str(top), "--intervals", json.dumps([[top, top]] * 10)]
    assert run(*argv) == (0, _limit_json(top, {"[]": 1, f"[{top}]": -1}), "")
    # the unions built may hold 2^30 mask bits
    top = (1 << 30) + 1
    argv = ["limit-l", "--n", str(top), "--intervals", json.dumps([[top, top]])]
    assert run(*argv) == (
        2, "", "error: limit_l_vector would build 1073741825 mask bits, limit is 2^30\n"
    )
    # and may visit 2^20 unions; both sides, lowered: 16 visits, then 19
    monkeypatch.setattr(analysis, "_LIMIT_VISITS", 1 << 4)
    system = [[1, 1]] * 6 + [[1, 2]] * 2
    argv = ["limit-l", "--n", "2", "--intervals"]
    assert run(*argv, json.dumps(system)) == (
        0, _limit_json(2, {"[]": 1, "[1]": -1, "[1,2]": 0}), ""
    )
    assert run(*argv, json.dumps(system + [[1, 1]])) == (
        2, "", "error: limit_l_vector would visit 19 unions, limit is 2^4\n"
    )


@pytest.mark.parametrize(
    "n,intervals,message",
    [
        (10**9, [[1, 10**9]], "limit-l labels would list 1000000000 ranks, limit is 2^25"),
        (50000, [[49999 - 2 * k, 50000 - 2 * k] for k in range(20)],
         "limit_l_vector would build 1638350000 mask bits, limit is 2^30"),
    ],
    ids=["one-interval-1e9", "twenty-at-the-top"],
)
def test_limit_l_refuses_wide_tables_quickly(run, n, intervals, message):
    start = time.perf_counter()
    code, out, err = run("limit-l", "--n", str(n), "--intervals", json.dumps(intervals))
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_limit_l_label_bound(run, monkeypatch):
    from cdposets import cli

    def no_label(mask):
        raise AssertionError("a label was written past the bound")

    # one rank past 2^25 is refused before a label is written (writing
    # them would take gigabytes)
    monkeypatch.setattr(cli, "subset_label", no_label)
    argv = ["limit-l", "--n", str(2**25 + 1), "--intervals", f"[[1,{2**25 + 1}]]"]
    assert run(*argv) == (
        2, "", "error: limit-l labels would list 33554433 ranks, limit is 2^25\n"
    )
    monkeypatch.undo()
    # both sides of the limit, lowered so that the accepted side is small
    monkeypatch.setattr(cli, "_LABEL_RANKS", 8)
    assert run("limit-l", "--n", "9", "--intervals", "[[1,8]]") == (
        0, _limit_json(9, {"[]": 1, _ranks(1, 8): -1}), ""
    )
    assert run("limit-l", "--n", "9", "--intervals", "[[1,9]]") == (
        2, "", "error: limit-l labels would list 9 ranks, limit is 2^3\n"
    )


def test_limit_l_has_no_max_k(run):
    code, out, err = run(
        "limit-l", "--n", "4", "--intervals", "[[1,2],[3,4]]", "--max-k", "1"
    )
    assert (code, out) == (2, "")
    assert err.endswith("error: unrecognized arguments: --max-k 1\n")


def test_limit_l_rejects_malformed_intervals(run):
    code, _, err = run("limit-l", "--n", "4", "--intervals", "[[1,2,3]]")
    assert code == 2
    assert "bad interval" in err


def test_classify_json(run):
    code, out, _ = run("classify", "ccdcc")
    assert code == 0
    assert json.loads(out) == {
        "word": "ccdcc",
        "class": "Part3",
        "witness": "ccdcc",
        "position": 0,
    }


def test_classify_table(run):
    code, out, _ = run("classify", "cdd", "--format", "table")
    assert code == 0
    assert out.strip() == "word cdd; class Part3; witness dd at 1"


def test_certificate_matches_reference_serialization(run):
    code, out, _ = run("certificate", "cdcdc")
    assert code == 0
    assert json.loads(out) == {
        "S": [4],
        "T": [3, 5],
        "V": [1, 2, 3, 5, 6, 7],
        "class": "Part1b",
        "word": "cdcdc",
    }


def test_certificate_refuses_wrong_class(run):
    code, _, err = run("certificate", "ccc")
    assert code == 2
    assert "error:" in err


def test_witness_json(run):
    code, out, _ = run("witness", "cdd", "--N", "2")
    assert code == 0
    data = json.loads(out)
    assert data["coefficient"] == -8
    assert data["base"] == "dp(4,[[1,4]],2)"
    assert data["witness"] == "dd"
    assert data["position"] == 1
    assert data["rank"] >= 4 and data["elements"] > 0
    assert "decreasing" in data["trend"]


@pytest.mark.parametrize("word", ["cccdccc", "cdcccdd", "ccddc", "cdd"])
def test_witness_rank_and_elements_match_the_built_poset(run, word):
    from cdposets import negative_witness

    code, out, _ = run("witness", word, "--N", "2")
    assert code == 0
    data = json.loads(out)
    poset = negative_witness(word, 2).poset
    assert (data["rank"], data["elements"]) == (poset.rank, poset.num_elements)


def test_witness_prefix_budget_names_the_boolean(run):
    # the prefix lattice is checked before the base family
    code, out, err = run("witness", "cccdcc", "--N", "2", "--max-elements", "3")
    assert code == 2 and out == ""
    assert err == "error: boolean(2) would have 4 elements, budget is 3\n"


@pytest.mark.parametrize(
    "argv,code,message",
    [
        # lemma2(7,15) joined with boolean(2): 839,056 elements
        (("witness", "dcccd", "--N", "15"), 0, None),
        # a part of lemma2(7,16), whose glue would have 1,083,664 elements
        (("witness", "dcccd", "--N", "16"), 2, "horizontal_double would have 1018111"),
        (("check-eulerian", "lemma2(7,19)"), 2, "glue would have 1071609"),
        (("check-eulerian", "lemma2(7,20)"), 2, "replicate_interval would have 1120002"),
    ],
)
def test_default_budget_boundaries_are_the_walks_size_checks(run, argv, code, message):
    # the walk checks every node's level sizes against the budget and
    # builds no glue part, so these are the sizes of the tree's nodes
    got_code, out, err = run(*argv)
    assert got_code == code
    if message is None:
        assert err == ""
        assert json.loads(out)["coefficient"] == -201600
        assert json.loads(out)["elements"] == 839056
    else:
        assert (out, err) == ("", f"error: {message} elements, budget is 1000000\n")


def test_witness_refuses_wrong_class(run):
    code, _, err = run("witness", "cdc", "--N", "2")
    assert code == 2
    assert "Part1a" in err


def test_bad_expression_is_usage_error(run):
    code, _, err = run("flags", "frob(3)")
    assert code == 2
    assert "unknown constructor" in err


def test_bad_interval_system_is_usage_error(run):
    code, _, err = run("build", "dp(4,[[1,3]],1)")
    assert code == 2
    assert "error:" in err


def test_check_eulerian_tests_an_expression_on_its_tree(run, monkeypatch):
    # 960,002 elements, inside the default budget: its replicated levels
    # would take a 53.6 GiB comparability matrix, and the tree has no glue
    def refuse(*args, **kwargs):
        raise AssertionError("built a poset")

    for name in ("chain", "replicate_interval", "horizontal_double"):
        monkeypatch.setattr(exprs, name, refuse)
    assert run("check-eulerian", "dp(8,[[1,8]],60000)") == (0, '{\n  "eulerian": true\n}\n', "")


# glues whose chains stay in parts, bare and wrapped; the dni is not
# Eulerian (exit 1, one violation), and so are the join and the dual
_GLUES_ON_THEIR_PARTS = [
    "lemma2(7,3)",
    "lemma3(2)",
    "dni(lemma2(7,3),2,5,2)",
    "join(boolean(3),dni(lemma3(2),3,3,2))",
    "dual(dni(lemma2(7,2),4,6,3))",
]

# Part3 words whose witnesses are lemma2 and lemma3 glues under joins
_GLUE_WITNESSES = ["dcccdd", "ccdccccc", "dcccccd", "cdcccdd"]


def _commands_on_glues():
    for text in _GLUES_ON_THEIR_PARTS:
        for command in ("check-eulerian", "flags", "l-vector", "cd-index"):
            yield command, text
        yield "check-inequality", text, "--all"
    for word in _GLUE_WITNESSES:
        yield "witness", word, "--N", "3"


def test_no_command_but_build_builds_a_poset(run, monkeypatch):
    # a glue's checks and its sums read its parts' plans, so no poset is
    # built, neither the glue nor its parts; the outputs are those of the
    # real constructions
    expected = {argv: run(*argv) for argv in _commands_on_glues()}
    assert expected[("check-eulerian", "dni(lemma2(7,3),2,5,2)")][0] == 1

    def refuse(*args, **kwargs):
        raise AssertionError("built a poset")

    for name in ("chain", "replicate_interval", "horizontal_double", "join", "boolean", "_glued"):
        monkeypatch.setattr(exprs, name, refuse)
    for argv, output in expected.items():
        assert run(*argv)[:2] == output[:2], argv
    with pytest.raises(AssertionError, match="built a poset"):
        run("build", "lemma3(2)")


def _record_poset_calls(monkeypatch):
    """Patch the walk's plans so that every ``poset()`` call records what
    reached it: ``build`` (``build_poset`` or the CLI's ``build``), a
    ``crossing glue`` (the walk, at a glue whose chains can cross parts),
    the ``walk`` elsewhere, or ``elsewhere``."""
    entries = {
        exprs.build_poset.__code__: "build",
        cli._cmd_build.__code__: "build",
        exprs._plan.__code__: "walk",
    }
    seen = []
    plan_type = exprs._Plan

    def plan(*fields):
        made = plan_type(*fields)

        def poset():
            frame = sys._getframe(1)
            while frame is not None and frame.f_code not in entries:
                frame = frame.f_back
            where = "elsewhere" if frame is None else entries[frame.f_code]
            if where == "walk" and frame.f_locals["kind"] == "glue":
                if not exprs._chains_stay_in_parts(frame.f_locals["layout"].sets):
                    where = "crossing glue"
            seen.append(where)
            return made.poset()

        return made._replace(poset=poset)

    monkeypatch.setattr(exprs, "_Plan", plan)
    return seen


_CROSSING = "glue([boolean(4), boolean(4)], [[0, 2, 4], [0, 2, 4]])"


def test_only_build_a_crossing_glue_and_a_witness_poset_reach_plan_poset(run, monkeypatch):
    seen = _record_poset_calls(monkeypatch)
    for argv in _commands_on_glues():
        run(*argv)
    assert seen == []
    # a crossing glue is built in the walk, with its parts
    for command in ("check-eulerian", "flags", "l-vector"):
        assert run(command, f"join(boolean(2),{_CROSSING})")[2] == ""
        assert set(seen) == {"crossing glue"}
        seen.clear()
    assert run("build", "dni(lemma2(7,2),2,5,2)")[0] == 0
    assert run("build", f"double({_CROSSING})")[0] == 0
    assert set(seen) == {"build", "crossing glue"}
    seen.clear()
    # a witness builds its poset only when read, through build_poset
    report = cdposets.negative_witness("dcccdd", 2)
    assert seen == []
    assert report.poset.level_sizes == report.level_sizes
    assert seen and set(seen) == {"build"}


def test_budget_exhaustion_is_usage_error(run):
    code, _, err = run("build", "boolean(25)", "--max-elements", "1000")
    assert code == 2
    assert "error:" in err


def test_poset_file_is_validated(run, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps({"rank": 2, "level_sizes": [2, 1, 1], "covers": [[[0, 0]], [[0, 0]]]})
    )
    code, _, err = run("flags", str(bad))
    assert code == 2
    assert "invalid poset" in err


@pytest.mark.parametrize("command", ["flags", "check-eulerian"])
def test_poset_file_with_booleans_is_usage_error(run, tmp_path, command):
    bad = tmp_path / "bools.json"
    bad.write_text(
        json.dumps({"rank": True, "level_sizes": [1, True], "covers": [[[0, False]]]})
    )
    code, out, err = run(command, str(bad))
    assert code == 2 and out == ""
    assert err == "error: rank must be an integer\n"


@pytest.mark.parametrize("entry", [5, None])
def test_poset_file_with_non_list_cover_level_is_usage_error(run, tmp_path, entry):
    bad = tmp_path / "covers.json"
    bad.write_text(
        json.dumps({"rank": 2, "level_sizes": [1, 1, 1], "covers": [entry, [[0, 0]]]})
    )
    code, out, err = run("flags", str(bad))
    assert code == 2 and out == ""
    assert err == "error: covers must be a list of lists of pairs\n"


def test_poset_file_over_budget_is_usage_error(run, tmp_path):
    # refused from the declared level sizes, before validation walks them
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"rank": 2, "level_sizes": [1, 10**6, 1], "covers": [[], []]}))
    code, out, err = run("flags", str(huge))
    assert code == 2 and out == ""
    assert "1000002 elements, budget is 1000000" in err


def test_poset_file_obeys_max_elements(run, tmp_path):
    target = tmp_path / "boolean4.json"
    assert run("build", "boolean(4)", "-o", str(target))[0] == 0
    code, out, err = run("cd-index", str(target), "--max-elements", "15")
    assert code == 2 and out == ""
    assert "16 elements, budget is 15" in err
    code, out, _ = run("cd-index", str(target), "--max-elements", "16")
    assert code == 0
    assert json.loads(out) == {"n": 3, "terms": {"ccc": 1, "cd": 2, "dc": 2}}


def test_malformed_json_file(run, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run("flags", str(bad))
    assert code == 2


def test_deeply_nested_json_file_is_usage_error(run, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    code, out, err = run("check-eulerian", str(deep))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {deep}: maximum recursion depth exceeded")
    assert err.count("\n") == 1


LIMIT = exprs._MAX_DEPTH


def nested_duals(depth):
    return "dual(" * (depth - 1) + "chain(2)" + ")" * (depth - 1)


def dp_of(intervals):
    pairs = ",".join(f"[{2 * i + 1},{2 * i + 2}]" for i in range(intervals))
    return f"dp({2 * intervals},[{pairs}],1)"


@pytest.mark.parametrize("command", ["build", "flags"])
@pytest.mark.parametrize(
    "text,message",
    [
        (nested_duals(LIMIT + 1), f"expression nests more than {LIMIT} levels deep at offset"),
        (nested_duals(2000), f"expression nests more than {LIMIT} levels deep at offset"),
        # dp of k intervals expands to k + 2 levels: double, k dni, chain
        (dp_of(LIMIT - 1), f"expression nests more than {LIMIT} levels deep once dp"),
        (dp_of(1000), f"expression nests more than {LIMIT} levels deep once dp"),
    ],
    ids=[f"dual-x{LIMIT + 1}", "dual-x2000", f"dp-{LIMIT - 1}-intervals", "dp-1000-intervals"],
)
def test_nesting_past_the_limit_is_usage_error(run, command, text, message):
    code, out, err = run(command, text)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1


def test_nesting_at_the_limit_runs(run):
    code, out, _ = run("flags", nested_duals(LIMIT))
    assert code == 0 and json.loads(out) == json.loads(run("flags", "chain(2)")[1])
    code, out, _ = run("build", dp_of(LIMIT - 2))
    assert code == 0 and json.loads(out)["rank"] == 2 * (LIMIT - 2) + 1


def test_missing_subcommand(run):
    code, _, _ = run()
    assert code == 2


def test_unknown_verify_suite(run):
    code, _, _ = run("verify", "nonsense")
    assert code == 2


def test_verify_single_suite_json(run):
    code, out, _ = run("verify", "lemma3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert len(data["rows"]) == 6
    assert all(row["ok"] for row in data["rows"])


def test_verify_all_passes(run):
    code, out, _ = run("verify", "all")
    assert code == 0
    assert out.splitlines()[-1].endswith("checks passed")
    assert "246/246" in out.splitlines()[-1]


@pytest.mark.parametrize(
    "argv,code,lines",
    [
        (["check-eulerian", "boolean(3)"], 0, ["eulerian: yes"]),
        (
            ["check-eulerian", "chain(3)"],
            1,
            [
                "eulerian: no; interval from rank 0 index 0 to rank 2 index 0 "
                "has 2 even and 1 odd elements"
            ],
        ),
        (["check-inequality", "boolean(3)", "--all"], 0, ["checked 8 (T, V) pairs, 0 violations"]),
        (
            ["check-inequality", "chain(3)", "--all"],
            1,
            [
                "checked 8 (T, V) pairs, 4 violations",
                "T    V      f_form  l_form",
                "---  -----  ------  ------",
                "[1]  [1]    -1      -1/4  ",
                "[2]  [2]    -1      -1/4  ",
                "[2]  [1,2]  -1      -1/2  ",
                "[1]  [1,2]  -1      -1/2  ",
            ],
        ),
        (
            ["check-inequality", "chain(4)", "--all"],
            1,
            [
                "checked 21 (T, V) pairs, 12 violations",
                "T    V        f_form  l_form",
                "---  -------  ------  ------",
                "[1]  [1]      -1      -1/8  ",
                "[2]  [2]      -1      -1/8  ",
                "[2]  [1,2]    -1      -1/4  ",
                "[1]  [1,2]    -1      -1/4  ",
                "[3]  [3]      -1      -1/8  ",
                "[1]  [1,3]    -1      -1/4  ",
                "[3]  [1,3]    -1      -1/4  ",
                "[3]  [2,3]    -1      -1/4  ",
                "[2]  [2,3]    -1      -1/4  ",
                "[3]  [1,2,3]  -1      -1/2  ",
                "[2]  [1,2,3]  -1      -1/2  ",
                "[1]  [1,2,3]  -1      -1/2  ",
            ],
        ),
        (
            ["check-inequality", "boolean(4)", "--T", "[1]", "--V", "[1,2]"],
            0,
            [
                "T    V      f_form  l_form  nonnegative",
                "---  -----  ------  ------  -----------",
                "[1]  [1,2]  4       1       True       ",
            ],
        ),
        (
            ["check-inequality", "chain(3)", "--T", "[1]", "--V", "[1]"],
            1,
            [
                "T    V    f_form  l_form  nonnegative",
                "---  ---  ------  ------  -----------",
                "[1]  [1]  -1      -1/4    False      ",
            ],
        ),
        (
            ["flags", "boolean(3)"],
            0,
            ["S      f_S", "-----  ---", "[]     1  ", "[1]    3  ", "[2]    3  ", "[1,2]  6  "],
        ),
        (["l-vector", "boolean(3)"], 0, ["Q      L_Q ", "-----  ----", "[]     3/2 ", "[1,2]  -1/2"]),
        (
            ["limit-l", "--n", "4", "--intervals", "[[1,2],[3,4]]"],
            0,
            [
                "S          L_S",
                "---------  ---",
                "[]         1  ",
                "[1,2]      -1 ",
                "[3,4]      -1 ",
                "[1,2,3,4]  1  ",
            ],
        ),
    ],
    ids=[
        "check-eulerian-pass",
        "check-eulerian-fail",
        "inequality-all-clean",
        "inequality-all-violations",
        "inequality-all-violations-chain4",
        "inequality-pair-holds",
        "inequality-pair-fails",
        "flags",
        "l-vector",
        "limit-l",
    ],
)
def test_table_forms_print_exactly(run, argv, code, lines):
    assert run(*argv, "--format", "table") == (code, "".join(f"{line}\n" for line in lines), "")


def test_verify_suite_json_prints_exactly(run):
    rows = [
        {
            "actual": "True",
            "check": f"boolean({k}) strictly positive cd coefficients",
            "expected": "True",
            "ok": True,
            "suite": "boolean-positivity",
        }
        for k in range(1, 7)
    ]
    text = json.dumps({"passed": True, "rows": rows}, indent=2) + "\n"
    assert run("verify", "boolean-positivity", "--format", "json") == (0, text, "")


@pytest.mark.parametrize(
    "word,data",
    [
        ("c" * 70 + "d", {"S": [], "T": [72], "V": list(range(1, 73)), "class": "Part1a"}),
        (
            "dc" * 30 + "d",
            {
                "S": list(range(3, 91, 3)),
                "T": [2] + list(range(4, 92, 3)),
                "V": [s for s in range(1, 93) if s % 3 or s > 90],
                "class": "Part1b",
            },
        ),
    ],
    ids=["c^70 d", "(dc)^30 d"],
)
@pytest.mark.parametrize("command", ["classify", "certificate"])
def test_part1_words_past_62_ranks(run, command, word, data):
    text = json.dumps({**data, "word": word}, sort_keys=True, indent=2) + "\n"
    assert run(command, word) == (0, text, "")


def test_json_output_is_deterministic(run):
    first = run("l-vector", "dp(6,[[1,4],[3,6]],1)")
    second = run("l-vector", "dp(6,[[1,4],[3,6]],1)")
    assert first == second


@pytest.mark.skipif(shutil.which("cdposets") is None, reason="script not on PATH")
def test_installed_script_end_to_end(tmp_path):
    target = tmp_path / "p.json"
    build = subprocess.run(
        ["cdposets", "build", "lemma3(2)", "-o", str(target)],
        capture_output=True,
        text=True,
    )
    assert build.returncode == 0
    check = subprocess.run(
        ["cdposets", "check-eulerian", str(target)], capture_output=True, text=True
    )
    assert check.returncode == 0
    assert json.loads(check.stdout) == {"eulerian": True}


@pytest.mark.parametrize("module", ["cdposets", "cdposets.cli"])
def test_python_m_end_to_end(tmp_path, module):
    # the package and its cli module run as modules, so the process-level
    # path is tested without the installed script
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    target = tmp_path / "f.json"
    build = subprocess.run(
        [sys.executable, "-m", module, "build", "lemma3(2)", "-o", str(target)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert (build.returncode, build.stdout, build.stderr) == (0, "", "")
    assert json.loads(target.read_text())["rank"] == 7
    check = subprocess.run(
        [sys.executable, "-m", module, "check-eulerian", str(target)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert check.returncode == 0
    assert json.loads(check.stdout) == {"eulerian": True}


# -- flag data from the expression tree ------------------------------------


# a glue whose chains run from part 0's rank 1 through shared rank 2 to
# part 1's rank 3, so the walk builds it
_CROSSING_GLUE = "glue([boolean(4), boolean(4)], [[0, 2, 4], [0, 2, 4]])"


@pytest.mark.parametrize(
    "argv,code,fragment",
    [
        # budget trips inside double, dni, join and dp
        (["flags", "double(boolean(12))", "--max-elements", "5000"], 2, "horizontal_double would have"),
        (["cd-index", "dni(boolean(10), 3, 6, 4)", "--max-elements", "3000"], 2, "replicate_interval"),
        (["l-vector", "join(boolean(8), boolean(8))", "--max-elements", "500"], 2, "join would have"),
        (["flags", "dp(8, [[1, 8]], 1000)", "--max-elements", "5000"], 2, "replicate_interval"),
        (["flags", "dp(8, [[1, 8]], 200)", "--max-elements", "3000"], 2, "horizontal_double"),
        (["flags", "chain(3)", "--max-elements", "3"], 2, "chain(3) would have"),
        (["flags", "boolean(3)", "--max-elements", "7"], 2, "boolean(3) would have"),
        # bad dni ranges and zero copies
        (["flags", "dni(chain(4), 0, 2, 2)"], 2, "not within proper ranks"),
        (["flags", "dni(chain(4), 2, 4, 2)"], 2, "not within proper ranks"),
        (["flags", "dni(chain(4), 3, 2, 2)"], 2, "not within proper ranks"),
        (["flags", "dni(chain(4), 1, 2, 0)"], 2, "copies must be at least 1"),
        (["flags", "dp(4, [[1, 4]], 0)"], 2, "copies must be at least 1"),
        (["check-inequality", "dp(4, [[1, 3]], 1)", "--all"], 2, "bad interval system"),
        # more proper ranks than flag tables allow, after the element budget
        (["flags", "chain(22)"], 2, "flag vector over 21 proper ranks"),
        (["cd-index", "join(chain(12), dual(chain(12)))"], 2, "flag vector over 22"),
        (["l-vector", "join(chain(30), boolean(25))"], 2, "boolean(25) would have"),
        # glued nodes are built, and nodes above them use the identities
        (["flags", "glue([boolean(3), chain(3)], [[0, 1, 3], [0, 1, 3]])"], 2, "level sizes"),
        (["cd-index", "join(lemma3(2), dual(boolean(3)))", "--format", "table"], 0, ""),
        (["flags", "dual(dni(lemma3(2), 2, 3, 2))", "--format", "table"], 0, ""),
        # not Eulerian
        (["cd-index", "chain(3)"], 1, "non-even rank set"),
        (["cd-index", "dni(boolean(4), 1, 2, 2)"], 1, "non-even rank set"),
        # successes in every output format
        (["l-vector", "double(double(double(chain(6))))", "--format", "table"], 0, ""),
        (["check-inequality", "dp(6, [[1, 2], [3, 6]], 2)", "--all"], 0, ""),
        (["check-inequality", "boolean(5)", "--T", "[1]", "--V", "[1,2]", "--format", "table"], 0, ""),
        # the Eulerian test and build, from the tree and from the built poset
        (["check-eulerian", "double(boolean(12))", "--max-elements", "5000"], 2, "horizontal_double"),
        (["check-eulerian", "dni(lemma2(7, 2), 2, 5, 2)"], 1, ""),
        (["check-eulerian", "join(lemma3(2), dual(boolean(3)))", "--format", "table"], 0, ""),
        (["build", "dp(8, [[1, 8]], 1000)", "--max-elements", "5000"], 2, "replicate_interval"),
        (["build", "dual(dni(lemma3(2), 2, 3, 2))"], 0, ""),
        # nodes above a glue whose chains cross parts write into its table
        (["flags", f"dni({_CROSSING_GLUE}, 1, 2, 2)"], 0, ""),
        (["flags", f"glue([{_CROSSING_GLUE}, {_CROSSING_GLUE}], [[0, 4], [0, 4]])"], 0, ""),
        (["check-eulerian", f"glue([{_CROSSING_GLUE}, {_CROSSING_GLUE}], [[0, 4], [0, 4]])"], 1, ""),
    ],
)
def test_tree_path_output_matches_built_poset(run, monkeypatch, argv, code, fragment):
    tree = run(*argv)
    assert tree[0] == code and fragment in tree[2]
    monkeypatch.setattr(
        cli,
        "_load_plan",
        lambda text, budget: exprs._built_plan(build_poset(parse_expression(text), budget=budget)),
    )
    assert run(*argv) == tree


def test_budget_trip_above_a_large_lattice_is_quick(run):
    # boolean(19) is under the element budget, but its double is not; the
    # trip comes from the level sizes, before any poset is built
    start = time.perf_counter()
    code, out, err = run("cd-index", "double(boolean(19))")
    assert time.perf_counter() - start < 10
    assert code == 2 and out == ""
    assert err == (
        "error: horizontal_double would have 1004779 elements, budget is 1000000\n"
    )


@pytest.mark.parametrize("copies", [1, 3])
def test_cd_index_and_l_vector_at_the_flag_rank_limit(run, copies):
    # dp(20, {[1,2], ..., [19,20]}, N) has 20 proper ranks, the most the
    # flag budget accepts: each pair contributes cc + 2N d, and L_Q is
    # (-N)^|K| (N+1)^(10-|K|) on the union Q of any set K of pairs, 0
    # elsewhere.  At N = 3, 3^20 times the largest flag entry passes 2^63,
    # but the L transform checks each stage and stays in int64.
    pairs = [[2 * i + 1, 2 * i + 2] for i in range(10)]
    text = f"dp(20,{json.dumps(pairs, separators=(',', ':'))},{copies})"
    terms, entries = {}, {}
    for chosen in itertools.product([False, True], repeat=10):
        k = sum(chosen)
        terms["".join("d" if c else "cc" for c in chosen)] = (2 * copies) ** k
        label = json.dumps([r for c, p in zip(chosen, pairs) if c for r in p], separators=(",", ":"))
        entries[label] = str((-copies) ** k * (copies + 1) ** (10 - k))
    start = time.perf_counter()
    code, out, err = run("cd-index", text)
    assert (code, err) == (0, "")
    assert json.loads(out) == {"n": 20, "terms": terms}
    code, out, err = run("l-vector", text)
    assert (code, err) == (0, "")
    assert json.loads(out) == {"n": 20, "entries": entries}
    assert time.perf_counter() - start < 20


def _wide_word_json():
    # c^400000 d: Part1a with j = 0, so S is empty, T = {n} and V = [1, n]
    n = 400002
    data = {
        "S": [], "T": [n], "V": list(range(1, n + 1)), "class": "Part1a",
        "word": "c" * 400000 + "d",
    }
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "argv,want",
    [
        (
            ["limit-l", "--n", "1000000", "--intervals", "[[1,1000000]]"],
            lambda: (0, _limit_json(10**6, {"[]": 1, _ranks(1, 10**6): -1}), ""),
        ),
        (["classify", "c" * 400000 + "d"], lambda: (0, _wide_word_json(), "")),
        (["certificate", "c" * 400000 + "d"], lambda: (0, _wide_word_json(), "")),
        (
            ["flags", "double(chain(20000))"],
            lambda: (2, "", "error: flag vector over 19999 proper ranks is out of budget\n"),
        ),
    ],
    ids=["limit-l-1e6", "classify-c400000d", "certificate-c400000d", "double-chain-20000"],
)
def test_wide_inputs_answer_in_linear_time(run, argv, want):
    # rank masks are read in one pass over their binary digits and the
    # double's level sizes with one running total; a read that copied the
    # mask or the size list at every step took 7 to 30 s on these
    start = time.perf_counter()
    got = run(*argv)
    assert time.perf_counter() - start < 4
    assert got == want()


NINES = "9" * 4300  # the largest integer the default conversion limit parses


@pytest.mark.parametrize(
    "argv,message",
    [
        # a count that prints keeps its message
        (["cd-index", "boolean(70)"], "boolean(70) would have 1180591620717411303424"),
        (["cd-index", "boolean(10000000000)"], "boolean(10000000000) would have 2^10000000000"),
        (["cd-index", "boolean(20000)"], "boolean(20000) would have 2^20000"),
        (["build", "boolean(20000)"], "boolean(20000) would have 2^20000"),
        (
            ["cd-index", f"dni(chain(3),1,2,{NINES})"],
            "replicate_interval would have more than 2^14285",
        ),
        (["witness", "c" * 20000 + "cdd", "--N", "2"], "boolean(20002) would have 2^20002"),
    ],
    ids=["boolean-70", "boolean-1e10", "boolean-20000", "build-boolean-20000",
         "dni-4300-digits", "witness-c20000"],
)
def test_huge_counts_trip_the_budget_quickly(run, argv, message):
    # the huge ones neither form the count 2**k of a lattice nor print an
    # integer past the 4300-digit conversion limit
    start = time.perf_counter()
    code, out, err = run(*argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == f"error: {message} elements, budget is 1000000\n"


@pytest.mark.parametrize(
    "argv,fragment",
    [
        (["--n", "4", "--intervals", "[[null,2]]"], "bad interval [None, 2]"),
        (["--n", "4", "--intervals", "[[[1],2]]"], "bad interval [[1], 2]"),
        (["--n", "4", "--intervals", "[[1,2.5]]"], "bad interval [1, 2.5]"),
        (["--n", "4", "--intervals", "[[1,true]]"], "bad interval [1, True]"),
        (["--n", "-1", "--intervals", "[]"], "n must be nonnegative, got -1"),
    ],
)
def test_limit_l_rejects_non_integer_endpoints_and_negative_n(run, argv, fragment):
    code, out, err = run("limit-l", *argv)
    assert code == 2 and out == ""
    assert err == f"error: {fragment}\n"


@pytest.mark.parametrize(
    "argv,offset",
    [
        (["build", "chain(²)"], 6),
        (["build", "chain(١٢)"], 6),
        (["cd-index", "boolean(３)"], 8),
        (["build", "chaîn(2)"], 3),
    ],
    ids=["superscript", "arabic-indic", "fullwidth", "latin-letter"],
)
def test_non_ascii_characters_are_parse_errors(run, argv, offset):
    # str.isdigit accepts the three digits, int() reads all but '²', and
    # str.isalpha accepts 'î'
    code, out, err = run(*argv)
    assert (code, out) == (2, "")
    assert err == f"error: unexpected character {argv[1][offset]!r} at offset {offset}\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["build", "glue([chain(2),chain(3)],[[0,2],[0,3]])"],
         "all parts must share one rank, got 3 and 2"),
        (["build", "glue([chain(2)],[[0,2,5]])"], "part 0 glue ranks [0, 2, 5] outside [0, 2]"),
        (["build", "boolean(0)"], "boolean rank must be at least 1, got 0"),
        (["limit-l", "--n", str(2**31),
          "--intervals", json.dumps([[1, 2]] * 20 + [[1, 2**31]])],
         "limit_l_vector would build 4294967374 mask bits, limit is 2^30"),
        (["limit-l", "--n", "4", "--intervals", "[[1,2]"],
         "bad interval list '[[1,2]': Expecting ',' delimiter: line 1 column 7 (char 6)"),
        (["limit-l", "--n", "4", "--intervals", "{}"],
         "intervals must be a JSON list of [low, high] pairs"),
    ],
    ids=["glue-ranks", "glue-outside", "boolean-0", "limit-l-21", "limit-l-json", "limit-l-object"],
)
def test_usage_errors_print_one_line(run, argv, message):
    assert run(*argv) == (2, "", f"error: {message}\n")


def test_poset_file_without_fields_is_usage_error(run, tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    assert run("check-eulerian", str(empty)) == (
        2, "", "error: poset object needs rank/level_sizes/covers: 'rank'\n"
    )


def test_one_parser_serves_every_command(capsys, monkeypatch, tmp_path):
    # the parser is built once per process; each command prints what a
    # freshly built parser prints, usage errors and help included
    from cdposets import cli

    monkeypatch.setenv("COLUMNS", "80")
    target = tmp_path / "f.json"
    commands = [
        ["flags", "boolean(3)"],
        ["verify", "duality"],
        ["build", "lemma3(2)", "-o", str(target)],
        ["build", "boolean(2)"],
        ["flags", "boolean(3)", "--format", "xml"],
        ["--help"],
    ]

    def outputs(fresh):
        target.unlink(missing_ok=True)
        out = []
        for argv in commands:
            if fresh:
                cli.build_parser.cache_clear()
            code = main(argv)
            captured = capsys.readouterr()
            out.append((code, captured.out, captured.err))
        return out, target.read_text()

    cli.build_parser.cache_clear()
    cached = outputs(fresh=False)
    assert cli.build_parser.cache_info().misses == 1
    assert [code for code, _, _ in cached[0]] == [0, 0, 0, 0, 2, 0]
    assert "invalid choice: 'xml'" in cached[0][4][2]
    assert cached[0][5][1].startswith("usage: cdposets")
    assert outputs(fresh=True) == cached


def test_witnesses_build_no_glue(run, monkeypatch):
    expected = {word: run("witness", word, "--N", "3") for word in ("dcccdd", "ccdccccc")}

    def refuse(layout, posets):
        raise AssertionError("built a glue")

    monkeypatch.setattr(exprs, "_glued", refuse)
    for word, output in expected.items():
        assert run("witness", word, "--N", "3") == output
    assert json.loads(expected["dcccdd"][1])["coefficient"] == 4 * (3**2 - 3**4)
    assert json.loads(expected["ccdccccc"][1])["coefficient"] == -2 * (3 - 1) ** 2


def test_glue_checks_run_once_and_only_build_builds_the_glue(run, monkeypatch):
    # check-eulerian takes a glue's sums from its parts' plans, on which
    # the glue's checks run too, so it builds neither the glue nor its
    # parts; build builds the parts and then the glue, once
    calls = []

    def counted(name):
        real = getattr(exprs, name)

        def spy(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(exprs, name, spy)

    for name in ("_glue_layout", "_glued", "chain", "replicate_interval"):
        counted(name)
    for text, code in [
        ("lemma2(7,3)", 0),
        ("dni(lemma2(7,3),2,5,2)", 1),
        ("join(boolean(3),dni(lemma3(2),3,3,2))", 1),
    ]:
        calls.clear()
        assert run("check-eulerian", text)[0] == code, text
        assert calls == ["_glue_layout"], text
    calls.clear()
    assert run("build", "lemma2(7,3)")[0] == 0
    # three chains, replicated four, three and one times
    parts = ["chain", *["replicate_interval"] * 4, "chain", *["replicate_interval"] * 3]
    assert calls == ["_glue_layout", *parts, "chain", "replicate_interval", "_glued"]


# -- JSON output ----------------------------------------------------------


def _dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=2)


def _outcome(encode, obj):
    try:
        return encode(obj)
    except Exception as exc:
        return type(exc), str(exc)


# entries at and past the ends of int64, and signs
_TABLE_EDGES = [0, 1, -1, 2**63 - 1, -(2**63 - 1), -(2**63), 2**63, 2**64, -(2**64) - 1, 3**50]
_int64_entries = st.one_of(st.integers(-3, 3), st.integers(-(2**63), 2**63 - 1))


@st.composite
def _held_tables(draw):
    """A table that ``_json_text`` writes itself, and the dict whose
    ``json.dumps`` the command prints for it: a flag or L table of int64 or
    Python int entries (all zero, too), a cd-index (zero, too) or a
    ``limit-l`` table."""
    n = draw(st.integers(0, 6), label="n")
    size = 1 << n
    kind = draw(st.sampled_from(["flags", "l-vector", "cd-index", "limit-l"]), label="kind")
    if kind == "cd-index":
        terms = draw(st.dictionaries(st.sampled_from(cd_words(n)), _int64_entries))
        poly = CdPolynomial(n, terms)
        return poly, poly.to_dict()
    if kind == "limit-l":
        entries = draw(st.dictionaries(st.integers(0, size - 1), st.one_of(_int64_entries, st.integers())))
        labelled = {subset_label(mask): value for mask, value in entries.items()}
        return cli._LimitTable(n, entries), {"n": n, "entries": labelled}
    values = draw(st.one_of(st.just([0] * size), st.lists(_int64_entries, min_size=size, max_size=size)))
    if draw(st.booleans(), label="past int64"):
        values[draw(st.integers(0, size - 1))] = draw(st.sampled_from(_TABLE_EDGES[6:]))
    table = FlagVector(n, values) if kind == "flags" else LVector.from_numerators(n, values)
    return table, table.to_dict()


@given(_held_tables())
def test_json_text_is_json_dumps(held):
    table, data = held
    assert _json_text(table) == _dumps(data)


def test_json_text_defers_cycles_to_json():
    cycle = {"a": 1}
    cycle["b"] = {"c": cycle}
    assert _outcome(_json_text, cycle) == (ValueError, "Circular reference detected")
    cycle = [1, []]
    cycle[1].append(cycle)
    assert _outcome(_json_text, cycle) == (ValueError, "Circular reference detected")


@st.composite
def _small_posets(draw):
    """A small built poset, or one of up to 5 levels of up to 3 elements
    with any cover pairs: its covers are lists of int pairs, some empty,
    some past int64."""
    if draw(st.booleans()):
        text = draw(st.sampled_from(["chain(1)", "boolean(3)", "dni(boolean(3),1,2,2)", "lemma3(1)"]))
        return build_poset(parse_expression(text))
    rank = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(1, 3), min_size=rank + 1, max_size=rank + 1))
    index = st.integers(0, 3)
    if draw(st.booleans()):
        index = st.one_of(index, st.integers(2**63, 2**70))
    covers = [draw(st.lists(st.tuples(index, index), max_size=6)) for _ in range(rank)]
    return RankedPoset(rank, sizes, covers)


@given(_small_posets())
def test_json_text_writes_lists_of_scalar_lists_as_json_does(poset):
    assert _json_text(poset) == _dumps(poset.to_dict())


# a key of one character at or just outside the plain range, then "a":
# its JSON, and whether json's key sort puts it before "b"
_ESCAPED_KEYS = {
    "": ('"a"', True),
    " ": ('" a"', True),
    "!": ('"!a"', True),
    '"': ('"\\"a"', True),
    "\\": ('"\\\\a"', True),
    "\x1f": ('"\\u001fa"', True),
    "\x7f": ('"\\u007fa"', False),
    "é": ('"\\u00e9a"', False),
}


@pytest.mark.parametrize("extra", ["", " ", "!", '"', "\\", "\x1f", "\x7f", "é"])
def test_json_text_sorts_tables_as_json_does(extra):
    # the objects the commands do not hold as tables fall through to
    # json.dumps: a nested dict, sorted and escaped, and a leaf json refuses
    key, first = _ESCAPED_KEYS[extra]
    entries = [key + ": [\n      1,\n      null\n    ]", '"b": {\n      "c": 0.5\n    }']
    if not first:
        entries.reverse()
    expected = '{\n  "entries": {\n    ' + ",\n    ".join(entries) + '\n  },\n  "n": 3\n}'
    assert _json_text({"n": 3, "entries": {"b": {"c": 0.5}, extra + "a": [1, None]}}) == expected
    with pytest.raises(TypeError, match="^Object of type Fraction is not JSON serializable$"):
        _json_text({"n": 3, "entries": {"a": [Fraction(1, 2)]}})


@pytest.mark.parametrize(
    "expr", ["dp(14,[[4,9],[10,11],[12,13]],3)", "dp(16,[[1,12]],2)"]
)
def test_table_commands_print_json_dumps_of_the_library_dicts(run, expr):
    flags = flag_vector_of(parse_expression(expr))
    expected = {
        "flags": flags.to_dict(),
        "l-vector": l_vector(flags).to_dict(),
        "cd-index": cd_from_l(l_vector(flags)).to_dict(),
    }
    for command, data in expected.items():
        assert run(command, expr) == (0, _dumps(data) + "\n", ""), command


@pytest.mark.parametrize("n", range(17))
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_flag_and_l_tables_print_json_dumps_of_their_dicts(n, data):
    # a seeded base table, zero, small or anywhere in int64, with a few
    # entries overwritten: L tables with few nonzero entries sort their
    # lines, the others take the label order
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    high = data.draw(st.sampled_from([0, 3, 2**62]), label="high")
    values = rng.integers(-high, high + 1, size=1 << n).tolist()
    for _ in range(data.draw(st.integers(0, 4), label="overwrites")):
        mask = data.draw(st.integers(0, (1 << n) - 1))
        values[mask] = data.draw(st.one_of(st.sampled_from(_TABLE_EDGES), st.integers()))
    for table in FlagVector(n, values), LVector.from_numerators(n, values):
        assert _json_text(table) == _dumps(table.to_dict())


# n = 0 to 16 proper ranks: doubled chains, dp posets and their duals,
# joins, and the doubled chain with 2^65 maximal chains (object arrays)
_TABLE_EXPRESSIONS = [
    "chain(1)",
    "chain(2)",
    "dp(2,[[1,2]],3)",
    "double(chain(4))",
    "dual(dp(4,[[1,2],[3,4]],2))",
    "join(dp(2,[[1,2]],1),chain(4))",
    "dp(6,[[1,4],[3,6]],2)",
    "double(chain(8))",
    "dual(dp(8,[[2,5],[4,7]],5))",
    "join(dp(4,[[1,4]],2),double(chain(6)))",
    "dp(10,[[1,2],[3,10]],1)",
    "double(double(chain(12)))",
    "dp(12,[[5,12]],2)",
    "double(double(double(double(double(chain(14))))))",
    "dual(dp(14,[[1,6],[5,10]],3))",
    "join(dp(8,[[1,2]],2),double(chain(8)))",
    "dp(16,[[10,15]],2)",
]


@pytest.mark.parametrize("expr", _TABLE_EXPRESSIONS)
def test_flags_and_l_vector_print_json_dumps_at_every_n(run, expr):
    flags = flag_vector_of(parse_expression(expr))
    assert flags.n == _TABLE_EXPRESSIONS.index(expr)
    assert run("flags", expr) == (0, _dumps(flags.to_dict()) + "\n", "")
    assert run("l-vector", expr) == (0, _dumps(l_vector(flags).to_dict()) + "\n", "")


def test_flags_and_l_vector_of_a_build_file_print_json_dumps(run, tmp_path):
    target = tmp_path / "poset.json"
    for expr in "dual(dp(8,[[2,5],[4,7]],5))", "double(" * 5 + "chain(14)" + ")" * 5:
        assert run("build", expr, "-o", str(target))[0] == 0
        flags = flag_vector(_load_poset_file(str(target), None))
        assert flags == flag_vector_of(parse_expression(expr))
        assert run("flags", str(target)) == (0, _dumps(flags.to_dict()) + "\n", "")
        expected = _dumps(l_vector(flags).to_dict()) + "\n"
        assert run("l-vector", str(target)) == (0, expected, "")


def _table_text(rows, columns):
    # the fixed-width table of --format table, padded to each column's widest entry
    texts = [columns] + [[str(row[col]) for col in columns] for row in rows]
    widths = [max(len(text[i]) for text in texts) for i in range(len(columns))]
    lines = [texts[0], ["-" * w for w in widths], *texts[1:]]
    return "".join("  ".join(t.ljust(w) for t, w in zip(line, widths)) + "\n" for line in lines)


@pytest.mark.parametrize("expr", ["dual(dp(8,[[2,5],[4,7]],5))", "double(double(chain(6)))"])
def test_flags_and_l_vector_tables_list_the_dict_entries(run, expr):
    flags = flag_vector_of(parse_expression(expr))
    rows = [{"S": label, "f_S": value} for label, value in flags.to_dict().items()]
    assert run("flags", expr, "--format", "table") == (0, _table_text(rows, ["S", "f_S"]), "")
    entries = l_vector(flags).to_dict()["entries"]
    rows = [{"Q": label, "L_Q": value} for label, value in entries.items()]
    assert run("l-vector", expr, "--format", "table") == (0, _table_text(rows, ["Q", "L_Q"]), "")


def test_flag_templates_are_built_on_use_and_hold_one_str_and_one_array(run):
    script = "import cdposets.cli as cli; print(cli._FLAG_TEMPLATES == {})"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert (result.returncode, result.stdout) == (0, "True\n")
    # a dense L table (2^65 chains) reads the label order and builds no
    # flag template
    cli._FLAG_TEMPLATES.clear()
    assert run("flags", "dp(6,[[1,4],[3,6]],2)")[0] == 0
    assert run("l-vector", "double(" * 5 + "chain(14)" + ")" * 5)[0] == 0
    assert run("cd-index", "dp(10,[[1,2],[3,10]],1)")[0] == 0
    assert sorted(cli._FLAG_TEMPLATES) == [6]
    for n, entry in cli._FLAG_TEMPLATES.items():
        template, order = entry
        assert (type(entry), len(entry), type(template), type(order)) == (
            tuple, 2, str, np.ndarray
        )
        assert order.dtype == np.intp and not order.flags.writeable
        labels = subset_labels(n)
        assert order.tolist() == sorted(range(1 << n), key=labels.__getitem__)
        assert template == _dumps(dict.fromkeys(labels, "%d"))


def test_a_dense_l_table_builds_no_flag_template_and_one_label_order():
    # a fresh process: the L table of chain(14) is dense, and its JSON reads
    # the label order, computed once for n = 13 and kept
    script = (
        "import contextlib, io\n"
        "import cdposets.cli as cli\n"
        "from cdposets import flag_vector_of, l_vector, parse_expression\n"
        "assert l_vector(flag_vector_of(parse_expression('chain(14)')))._dense()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(['l-vector', 'chain(14)']) for _ in range(2)]\n"
        "info = cli._label_order.cache_info()\n"
        "print(codes, cli._FLAG_TEMPLATES == {}, info.misses, info.hits)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert (result.returncode, result.stdout, result.stderr) == (0, "[0, 0] True 1 1\n", "")


def test_dense_l_table_of_17_ranks_prints_json_dumps_of_its_dict(run):
    table = l_vector(flag_vector_of(parse_expression("chain(18)")))
    assert table.n == 17 and table._dense()
    assert run("l-vector", "chain(18)") == (0, _dumps(table.to_dict()) + "\n", "")


@pytest.mark.parametrize("n", range(17))
def test_label_order_is_the_sorted_order_of_the_labels(n):
    labels = subset_labels(n)
    order = cli._label_order(n)
    assert order.dtype == np.intp
    assert order.tolist() == sorted(range(1 << n), key=labels.__getitem__)


@pytest.mark.parametrize("expr", ["chain(2)", "boolean(4)", "chain(6)", "dni(boolean(4),1,2,2)"])
def test_check_inequality_all_prints_json_dumps_of_its_rows(run, expr):
    flags = flag_vector_of(parse_expression(expr))
    pairs = list(inequality_pairs(flags.n))
    rows = [
        cli._inequality_row(flags.n, t, v, f)
        for t, v in pairs
        if (f := inequality_f_form(flags, t, v)) < 0
    ]
    expected = _dumps({"pairs": len(pairs), "violations": rows}) + "\n"
    assert run("check-inequality", expr, "--all") == (1 if rows else 0, expected, "")


def test_build_prints_json_dumps_of_the_poset_dict(run, tmp_path):
    data = build_poset(parse_expression("boolean(6)")).to_dict()
    assert run("build", "boolean(6)") == (0, _dumps(data) + "\n", "")
    target = tmp_path / "boolean6.json"
    assert run("build", "boolean(6)", "-o", str(target)) == (0, "", "")
    assert target.read_text() == _dumps(data) + "\n"


def test_build_json_is_written_from_the_poset_not_its_dict(run, monkeypatch):
    expected = _dumps(build_poset(parse_expression("boolean(6)")).to_dict()) + "\n"

    def no_dict(self):
        raise AssertionError("build wrote its JSON through to_dict")

    monkeypatch.setattr(RankedPoset, "to_dict", no_dict)
    assert run("build", "boolean(6)") == (0, expected, "")


# every 7th corpus name, and the poset of rank 1
_BUILD_NAMES = [name for name, _ in eulerian_corpus()[::7]] + ["chain(1)"]


@pytest.mark.parametrize("name", _BUILD_NAMES)
def test_build_of_corpus_names_prints_json_dumps(run, name):
    data = build_poset(parse_expression(name)).to_dict()
    assert run("build", name) == (0, _dumps(data) + "\n", "")


def test_build_of_random_graded_poset_files_prints_json_dumps(run, tmp_path):
    rng = np.random.default_rng(21)
    target = tmp_path / "poset.json"
    for _ in range(24):
        sizes = [1, *rng.integers(1, 7, size=int(rng.integers(0, 7))).tolist(), 1]
        data = oracles.random_graded(rng, sizes).to_dict()
        target.write_text(json.dumps(data))
        assert run("build", str(target)) == (0, _dumps(data) + "\n", "")


_cd_words_of_degree = st.integers(0, 9).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.sampled_from(cd_words(n)), max_size=8))
)


@given(_cd_words_of_degree, st.data())
def test_cd_polynomials_print_json_dumps_of_their_dicts(degree_words, data):
    # negative coefficients, zeros (dropped) and coefficients past 2^63
    n, words = degree_words
    coefficient = st.one_of(st.sampled_from(_TABLE_EDGES), st.integers())
    poly = CdPolynomial(n, {word: data.draw(coefficient) for word in words})
    assert _json_text(poly) == _dumps(poly.to_dict())


@pytest.mark.parametrize(
    "poly",
    [
        CdPolynomial(0, {}),
        CdPolynomial(4, {}),
        CdPolynomial(0, {"": 1}),
        CdPolynomial(0, {"": -(2**64)}),
        CdPolynomial(3, {"ccc": 2**63, "cd": -1, "dc": 3**50}),
    ],
    ids=["zero", "zero-degree-4", "empty-word", "empty-word-negative", "past-int64"],
)
def test_cd_polynomial_edges_print_json_dumps_of_their_dicts(poly):
    assert _json_text(poly) == _dumps(poly.to_dict())


@pytest.mark.parametrize(
    "expr", ["chain(1)", "double(chain(4))", "boolean(5)", "lemma3(3)", "dp(12,[[5,12]],2)"]
)
def test_cd_index_prints_json_dumps_of_the_polynomial_dict(run, expr):
    poly = cd_from_l(l_vector(flag_vector_of(parse_expression(expr))))
    assert run("cd-index", expr) == (0, _dumps(poly.to_dict()) + "\n", "")


_limit_systems = st.integers(1, 40).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(st.integers(1, n), st.integers(1, n)).map(sorted), max_size=8
        ),
    )
)


def _main_outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(deadline=None)
@given(_limit_systems)
def test_limit_l_prints_json_dumps_of_its_entries(system):
    # run in-process without the capsys fixture, which hypothesis does not reset
    n, intervals = system
    table = limit_l_vector(n, intervals)
    entries = {subset_label(mask): value for mask, value in table.items()}
    text = _dumps({"n": n, "entries": entries})
    assert _json_text(cli._LimitTable(n, table)) == text
    argv = ["limit-l", "--n", str(n), "--intervals", json.dumps(intervals)]
    assert _main_outcome(argv) == (0, text + "\n", "")


def test_limit_l_of_no_intervals_prints_json_dumps(run):
    assert run("limit-l", "--n", "3", "--intervals", "[]") == (0, _limit_json(3, {"[]": 1}), "")


def _child_env():
    return dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))


def test_closed_stdout_is_not_an_error():
    # the n = 16 flag table is about 2 MB, past any pipe buffer, so writes
    # fail once the reader has closed its end
    child = subprocess.Popen(
        [sys.executable, "-m", "cdposets", "flags", "dp(16,[[1,12]],2)"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(),
    )
    assert child.stdout.readline() == b"{\n"
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert (child.wait(timeout=60), err) == (0, b"")


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))


@pytest.mark.parametrize(
    "argv,gib",
    [
        (["build", "double(dp(64,[[2,25]],2147483648))", "--max-elements", str(10**20)], "400."),
        # a glue whose chains can cross parts is built for its test: the
        # comparability of its two 300,000-element levels takes 335 GiB
        (
            [
                "check-eulerian",
                "glue([dni(chain(5),1,2,150000), dni(chain(5),1,2,150000)], [[0,3,5],[0,3,5]])",
            ],
            "335.",
        ),
    ],
    ids=["build-400-GiB", "check-eulerian-335-GiB"],
)
def test_out_of_memory_is_a_usage_error(argv, gib):
    # an Eulerian poset's check that cannot get its memory is not "not
    # Eulerian" (exit 1); the limit applies to the child only
    result = subprocess.run(
        [sys.executable, "-m", "cdposets", *argv],
        capture_output=True,
        text=True,
        env=_child_env(),
        preexec_fn=_limit_address_space,
        timeout=60,
    )
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.startswith(f"error: Unable to allocate {gib} GiB")
    assert result.stderr.count("\n") == 1 and result.stderr.count("error:") == 1


def test_glue_of_wide_parts_answers_under_the_memory_limit():
    # each chain of this glue lies in one part, so its sums come from the
    # parts' and the comparability of its bottom with one of its
    # 300,000-element levels; building it took a 335 GiB matrix
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "cdposets",
            "check-eulerian",
            "glue([dni(chain(4),1,3,150000), dni(chain(4),1,3,150000)], [[0,4],[0,4]])",
        ],
        capture_output=True,
        text=True,
        env=_child_env(),
        preexec_fn=_limit_address_space,
        timeout=60,
    )
    assert (result.returncode, result.stderr) == (1, "")
    interval = json.loads(result.stdout)["interval"]
    assert interval == {"low": [0, 0], "high": [2, 0], "even_count": 2, "odd_count": 1}


def test_bare_memory_error_is_one_error_line(run, monkeypatch):
    def exhausted(text, budget):
        raise MemoryError

    monkeypatch.setattr(cli, "_load_plan", exhausted)
    assert run("check-eulerian", "boolean(3)") == (2, "", "error: out of memory\n")


@st.composite
def grammar_trees(draw, depth=3):
    """Expression text over every constructor of the grammar, with small
    arguments, some out of range, and glue sets of any small ranks; now
    and then one character is dropped or repeated."""
    small = st.integers(0, 4)
    names = ["chain", "boolean", "dp", "lemma2", "lemma3"]
    if depth:
        names += ["dual", "double", "dni", "join", "glue"]
    name = draw(st.sampled_from(names))
    if name in ("chain", "boolean", "lemma3"):
        text = f"{name}({draw(small)})"
    elif name == "lemma2":
        text = f"lemma2({draw(st.sampled_from([5, 7, 8, 9]))}, {draw(st.integers(0, 2))})"
    elif name == "dp":
        intervals = draw(st.lists(st.lists(small, min_size=2, max_size=2), max_size=2))
        text = f"dp({draw(small)}, {intervals}, {draw(st.integers(0, 2))})"
    elif name in ("dual", "double"):
        text = f"{name}({draw(grammar_trees(depth - 1))})"
    elif name == "dni":
        text = f"dni({draw(grammar_trees(depth - 1))}, {draw(small)}, {draw(small)}, {draw(small)})"
    elif name == "join":
        text = f"join({draw(grammar_trees(depth - 1))}, {draw(grammar_trees(depth - 1))})"
    else:
        parts = draw(st.lists(grammar_trees(depth - 1), min_size=1, max_size=3))
        sets = draw(st.lists(st.lists(small, max_size=4), min_size=len(parts) - 1, max_size=len(parts) + 1))
        text = f"glue([{', '.join(parts)}], {sets})"
    if draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(text) - 1))
        text = text[:at] + text[at] * draw(st.integers(0, 2)) + text[at + 1 :]
    return text


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.tuples(st.sampled_from(["check-eulerian", "flags", "cd-index"]), grammar_trees()),
        st.builds(
            lambda word, copies: ("witness", word, "--N", str(copies)),
            st.text("cd", min_size=1, max_size=7),
            st.integers(0, 3),
        ),
    )
)
def test_random_commands_keep_the_exit_contract(argv):
    # exit 0, 1 or 2 with at most one error line and no traceback: any
    # exception cli.main lets escape fails the test.  A failing exit says
    # why on stderr, except check-eulerian's "not Eulerian"
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert code in (0, 1, 2)
    assert err.getvalue().count("error:") <= 1 and "Traceback" not in err.getvalue()
    assert code == 0 or err.getvalue() or argv[0] == "check-eulerian"


def test_verify_duality_fails_when_the_dual_table_is_not_reversed(run, monkeypatch):
    # the suite computes each dual's table by matrix products and compares
    # it with the reversal that poset.dual() hands over
    from cdposets import flags

    monkeypatch.setattr(flags, "reversed_table", lambda table: table)
    code, out, _ = run("verify", "duality")
    assert code == 1
    assert "False" in out and not out.endswith("176/176 checks passed\n")


def test_verify_duality_computes_both_tables(run, monkeypatch):
    # each corpus poset and its dual get their tables from matrix products,
    # not the dual from its poset's table
    from cdposets import flags

    computed_flag_vector, computed = flags._computed_flag_vector, []

    def counting(poset):
        computed.append(poset)
        return computed_flag_vector(poset)

    monkeypatch.setattr(flags, "_computed_flag_vector", counting)
    assert run("verify", "duality")[0] == 0
    assert len(computed) == 2 * 176
