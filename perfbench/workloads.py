"""Seeded job lists for the three benchmark workloads.

A job list is plain data (JSON-serializable dicts).  The program under test
only ever receives the rendered expression strings and argv lists; the
structured ``poset`` specs stay on the benchmark side, where the checks use
them to compute expected results by closed forms.

Poset specs are nested lists mirroring the expression grammar::

    ["chain", r]  ["boolean", k]  ["double", P]  ["dual", P]
    ["dni", P, lo, hi, N]  ["join", P, Q]  ["dp", n, [[a, b], ...], N]
    ["lemma2", n, N]  ["lemma3", N]

The seed picks structure (which even interval system, which witness word,
the job order) and never size: every job carries a ``size`` key, built from
the command, rank, copies and interval count, whose multiset is the same
for every seed.
"""

from __future__ import annotations

import ast
import hashlib
import json
import random

WORKLOADS = ("wide", "tall", "corpus")

# nearest-rank percentile reported as job_tail_cal_s; with the minimum pass
# count below, each leaves at least ten samples beyond it.  wide and tall
# have 13 jobs a pass, so with any pass count k from 4 to 8 the ranks of p50
# and p75 fall inside the k samples of one job (ranks 6.5k and 9.75k), never
# on the edge between two jobs whose latencies differ.  corpus uses p98, not
# p99: p99 lands on the two slowest of its 176 jobs, whose times spread 0.16
# (IQR / median) over seeds, against 0.06 for p98.
TAIL_PERCENTILE = {"wide": 75, "tall": 75, "corpus": 98}
MIN_PASSES = {"wide": 4, "tall": 4, "corpus": 6}

BIGINT_SPEC = ["double", ["double", ["double", ["double", ["double", ["chain", 14]]]]]]


# -- rendering and parsing expressions --------------------------------


def render(spec) -> str:
    """Expression string for a poset spec, in the program's grammar."""
    kind, args = spec[0], spec[1:]
    if kind == "dp":
        n, intervals, copies = args
        inner = ",".join(f"[{a},{b}]" for a, b in intervals)
        return f"dp({n},[{inner}],{copies})"
    parts = [render(a) if isinstance(a, list) else str(a) for a in args]
    return f"{kind}({','.join(parts)})"


def parse(text: str):
    """Poset spec of an expression string (inverse of :func:`render`)."""

    def convert(node):
        if isinstance(node, ast.Call):
            return [node.func.id] + [convert(a) for a in node.args]
        if isinstance(node, ast.List):
            return [convert(e) for e in node.elts]
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return node.value
        raise ValueError(f"unsupported expression node in {text!r}")

    return convert(ast.parse(text, mode="eval").body)


# -- seeded structure ---------------------------------------------------


def interval_system(rng: random.Random, n: int, k: int) -> list[list[int]]:
    """A random even interval system of exactly k intervals on [1, n].

    Starts and ends increase strictly (so no interval nests in another),
    every interval has even length, every overlap has even length, and no
    rank lies in more than two intervals, which keeps the replicated
    levels of dp(n, system, N) at most 2 (N + 1)^2 wide.  Built by a
    depth-first search with seeded choice order, never by enumeration.
    """
    from cdposets.constructions import validate_even_interval_system

    def extend(system):
        if len(system) == k:
            return system
        left = k - len(system) - 1
        a0, b0 = system[-1] if system else (0, 0)
        options = [
            (a, b)
            for a in range(a0 + 1, n)
            for b in range(max(a + 1, b0 + 1), n + 1 - left)
            if (b - a) % 2 == 1
            and not (a <= b0 and (b0 - a) % 2 == 0)
            and (len(system) < 2 or a > system[-2][1])
        ]
        rng.shuffle(options)
        for option in options:
            found = extend(system + [option])
            if found:
                return found
        return None

    system = extend([])
    if system is None or validate_even_interval_system(n, [tuple(p) for p in system]):
        raise ValueError(f"no even interval system of {k} intervals on [1, {n}]")
    return [list(p) for p in system]


def witness_word(word: str) -> tuple[str, int] | None:
    """(witness subword, position) the paper's classification picks for a
    Part3 word, or None for words outside Part3."""
    ds = [i for i, ch in enumerate(word) if ch == "d"]
    if len(ds) == 1:
        i, j = ds[0], len(word) - ds[0] - 1
        return ("ccdcc", i - 2) if min(i, j) >= 2 else None
    for left, right in zip(ds, ds[1:]):
        if right - left - 1 != 1:
            return "d" + "c" * (right - left - 1) + "d", left
    return None


def cd_words(degree: int) -> list[str]:
    # kept here rather than taken from cdposets.flags, so that job lists do
    # not change when the program does
    if degree <= 0:
        return [""]
    if degree == 1:
        return ["c"]
    return ["c" + w for w in cd_words(degree - 1)] + ["d" + w for w in cd_words(degree - 2)]


def witness_words(witness: str, degree: int) -> list[str]:
    """Words of the given degree whose classification picks ``witness`` at
    position 0, so every choice builds the same poset (the witness base
    joined with one boolean lattice above it)."""
    return [w for w in cd_words(degree) if witness_word(w) == (witness, 0)]


# -- the workloads --------------------------------------------------------


def _seeded_dp(rng, n, k, copies):
    return ["dp", n, interval_system(rng, n, k), copies]


def _two_runs(rng, n, copies):
    cut = rng.choice(range(2, n, 2))
    return ["dp", n, [[1, cut], [cut + 1, n]], copies]


def _cli(command, spec, size, expect_exit=0):
    return {
        "kind": "cli",
        "argv": [command, render(spec)],
        "poset": spec,
        "expect_exit": expect_exit,
        "size": size,
    }


def _witness(word, copies, size):
    return {
        "kind": "cli",
        "argv": ["witness", word, "--N", str(copies)],
        "word": word,
        "copies": copies,
        "expect_exit": 0,
        "size": size,
    }


def wide_jobs(rng: random.Random) -> list[dict]:
    """Few ranks, thousands of elements: dense comparability dominates."""
    return [
        _cli("check-eulerian", ["lemma2", 7, 3], ["check-eulerian", "lemma2", 7, 3]),
        _cli("check-eulerian", ["boolean", 10], ["check-eulerian", "boolean", 10]),
        _cli("check-eulerian", ["dp", 8, [[1, 8]], 40], ["check-eulerian", "dp", 8, 40, 1]),
        _cli("check-eulerian", _two_runs(rng, 8, 60), ["check-eulerian", "dp", 8, 60, 2]),
        _cli(
            "check-eulerian",
            ["dual", _two_runs(rng, 8, 90)],
            ["check-eulerian", "dual-dp", 8, 90, 2],
        ),
        _cli("cd-index", ["boolean", 11], ["cd-index", "boolean", 11]),
        _cli("cd-index", _two_runs(rng, 8, 60), ["cd-index", "dp", 8, 60, 2]),
        _cli(
            "check-eulerian",
            ["dni", ["boolean", 10], 3, 6, 2],
            ["check-eulerian", "dni-boolean", 10, 2],
            expect_exit=1,
        ),
        _cli(
            "check-eulerian",
            ["dni", ["lemma2", 7, 3], 2, 5, 2],
            ["check-eulerian", "dni-lemma2", 7, 2],
            expect_exit=1,
        ),
        _witness(rng.choice(witness_words("dcccd", 9)), 3, ["witness", "dcccd", 9, 3]),
        _witness(rng.choice(witness_words("ccdcc", 9)), 3, ["witness", "ccdcc", 9, 3]),
        _witness(rng.choice(witness_words("dd", 5)), 3, ["witness", "dd", 5, 3]),
        _witness("dcccccd", 2, ["witness", "dcccccd", 9, 2]),
    ]


def tall_jobs(rng: random.Random) -> list[dict]:
    """Many ranks, few elements: 2^n-entry tables and CLI output dominate."""
    templates = [
        ("flags", 16, 1, 2, None),
        ("flags", 14, 3, 3, None),
        ("l-vector", 16, 8, 1, None),
        ("l-vector", 14, 2, 2, None),
        ("cd-index", 16, 8, 3, None),
        ("cd-index", 16, 4, 2, "dual"),
        ("cd-index", 14, 7, 2, None),
        ("cd-index", 14, 1, 1, None),
        ("cd-index", 14, 4, 3, None),
        ("flags", 14, 5, 1, "dual"),
    ]
    jobs = []
    for command, n, k, copies, wrap in templates:
        spec = _seeded_dp(rng, n, k, copies)
        if wrap:
            spec = [wrap, spec]
        jobs.append(_cli(command, spec, [command, wrap or "dp", n, k, copies]))
    # joins of two seeded dp posets, n = 8 + 6
    spec = ["join", _seeded_dp(rng, 8, 2, 3), _seeded_dp(rng, 6, 1, 2)]
    jobs.append(_cli("cd-index", spec, ["cd-index", "join", 14, "8:2:3", "6:1:2"]))
    spec = ["join", _seeded_dp(rng, 6, 2, 1), _seeded_dp(rng, 8, 3, 3)]
    jobs.append(_cli("l-vector", spec, ["l-vector", "join", 14, "6:2:1", "8:3:3"]))
    # 2^65 maximal chains: the big-integer flag path
    jobs.append(_cli("l-vector", BIGINT_SPEC, ["l-vector", "bigint", 13]))
    return jobs


def corpus_jobs(rng: random.Random) -> list[dict]:
    """The 176 corpus posets by name; each job runs the library directly."""
    from cdposets.corpus import eulerian_corpus

    return [{"kind": "corpus", "name": name, "size": [name]} for name, _ in eulerian_corpus()]


def generate(workload: str, seed: int) -> list[dict]:
    """The job list of one pass: same seed, byte-identical list."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = {"wide": wide_jobs, "tall": tall_jobs, "corpus": corpus_jobs}[workload](rng)
    rng.shuffle(jobs)
    return jobs


def digest(jobs: list[dict]) -> str:
    return hashlib.sha256(json.dumps(jobs, sort_keys=True).encode()).hexdigest()
