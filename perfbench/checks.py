"""Exact checks of job outputs, run outside the timed region.

Expected values come from closed forms wherever the paper or a product
rule gives one, and otherwise from an identity evaluated by a different
path than the program's:

* flag vectors of chain, boolean, double, dni, dp, dual and join specs from
  closed forms (multinomials, the 2^|S| doubling factor, the N-fold factor
  of an interval replication, mask reversal, the join product rule);
* cd-indices by expanding c -> a + b, d -> ab + ba and comparing with the
  h table of the closed-form flag vector;
* L tables by a Walsh transform of that h table;
* witnesses by the paper's coefficients (-4N, 4(N^2 - N^4), -2(N - 1)^2)
  times the boolean prefix and suffix factors (join multiplicativity);
* non-Eulerian reports by recounting the reported interval by breadth-first
  search over the covers;
* corpus jobs by duality (dual cd-index = reversal), nonnegativity of both
  inequality forms, the 2^(|S|+|T|) ratio between them, and the number of
  (T, V) pairs.

Every check returns None when the output is right and a one-line reason
otherwise.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

from workloads import parse, render, witness_word

TREND = "strictly decreasing in the copies parameter from 2 on"

# cd-index coefficients of boolean(k) on the prefix/suffix words the wide
# workload uses; selftest.py re-derives them from the multinomial h table
BOOLEAN_CD = {"": 1, "c": 1, "cc": 1, "d": 1, "ccc": 1, "cd": 2, "dc": 2}


def degree(word: str) -> int:
    return len(word) + word.count("d")


def label(mask: int) -> str:
    return json.dumps([s + 1 for s in range(mask.bit_length()) if mask >> s & 1], separators=(",", ":"))


# -- closed-form flag vectors ------------------------------------------------


def proper_ranks(spec) -> int:
    kind = spec[0]
    if kind in ("chain", "boolean"):
        return spec[1] - 1
    if kind in ("double", "dual", "dni"):
        return proper_ranks(spec[1])
    if kind == "join":
        return proper_ranks(spec[1]) + proper_ranks(spec[2])
    if kind in ("dp", "lemma2"):
        return spec[1]
    if kind == "lemma3":
        return 6
    raise ValueError(f"unknown spec {spec!r}")


def expected_flags(spec) -> list[int] | None:
    """f_S for all 2^n masks, or None when no closed form applies."""
    kind = spec[0]
    n = proper_ranks(spec)
    masks = range(1 << n)
    if kind == "chain":
        return [1] * (1 << n)
    if kind == "boolean":
        k = spec[1]
        out = []
        for mask in masks:
            cuts = [0] + [s + 1 for s in range(n) if mask >> s & 1] + [k]
            value = math.factorial(k)
            for lo, hi in zip(cuts, cuts[1:]):
                value //= math.factorial(hi - lo)
            out.append(value)
        return out
    if kind == "dp":
        _, n, intervals, copies = spec
        spans = [((1 << b) - 1) & ~((1 << (a - 1)) - 1) for a, b in intervals]
        return [
            (1 << bin(m).count("1")) * (copies + 1) ** sum(1 for s in spans if m & s)
            for m in masks
        ]
    if kind in ("lemma2", "lemma3"):
        return None
    inner = expected_flags(spec[1])
    if inner is None:
        return None
    if kind == "double":
        return [v << bin(m).count("1") for m, v in enumerate(inner)]
    if kind == "dni":
        _, _, lo, hi, copies = spec
        span = ((1 << hi) - 1) & ~((1 << (lo - 1)) - 1)
        return [v * copies if m & span else v for m, v in enumerate(inner)]
    if kind == "dual":
        return [inner[reverse(m, n)] for m in masks]
    if kind == "join":
        right = expected_flags(spec[2])
        if right is None:
            return None
        left_n = proper_ranks(spec[1])
        low = (1 << left_n) - 1
        return [inner[m & low] * right[m >> left_n] for m in masks]
    raise ValueError(f"unknown spec {spec!r}")


def reverse(mask: int, n: int) -> int:
    return sum(1 << (n - 1 - s) for s in range(n) if mask >> s & 1)


def _butterfly(values, n: int, combine) -> np.ndarray:
    arr = np.array(values, dtype=object)
    for bit in range(n):
        view = arr.reshape(-1, 2, 1 << bit)
        combine(view)
    return arr


def _mobius(view):
    view[:, 1, :] -= view[:, 0, :]


def _walsh(view):
    low = view[:, 0, :].copy()
    high = view[:, 1, :].copy()
    view[:, 0, :] = low + high
    view[:, 1, :] = low - high


def h_table(flags: list[int], n: int) -> np.ndarray:
    """h_S = sum over T in S of (-1)^|S - T| f_T."""
    return _butterfly(flags, n, _mobius)


def scaled_l_table(flags: list[int], n: int) -> np.ndarray:
    """2^n L_Q for every mask Q."""
    return _butterfly(h_table(flags, n), n, _walsh)


def ab_expansion(terms: dict[str, int], n: int) -> np.ndarray:
    """Coefficient of every ab monomial (mask of b positions) in the
    expansion c -> a + b, d -> ab + ba."""
    out = np.zeros(1 << n, dtype=object)
    for word, coeff in terms.items():
        masks = np.zeros(1, dtype=np.int64)
        pos = 0
        for ch in word:
            if ch == "c":
                masks = np.concatenate([masks, masks | 1 << pos])
                pos += 1
            else:
                masks = np.concatenate([masks | 1 << (pos + 1), masks | 1 << pos])
                pos += 2
        if pos != n:
            raise ValueError(f"word {word!r} has degree {pos}, not {n}")
        out[masks] += coeff
    return out


# -- checks of CLI outputs ------------------------------------------------


def _load(stdout: str):
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise AssertionError(f"output is not JSON: {exc}") from None


def _require(condition: bool, reason: str) -> None:
    if not condition:
        raise AssertionError(reason)


def check_cli(job: dict, output) -> str | None:
    """Verify one CLI job's (exit code, stdout) exactly."""
    code, stdout = output
    try:
        _require(code == job["expect_exit"], f"exit code {code}, expected {job['expect_exit']}")
        data = _load(stdout)
        command = job["argv"][0]
        if command == "witness":
            _check_witness(job, data)
        elif command == "check-eulerian":
            _check_eulerian(job, data)
        else:
            _check_tables(command, job["poset"], data)
    except AssertionError as exc:
        return f"{' '.join(job['argv'])}: {exc}"
    return None


def _check_tables(command: str, spec, data) -> None:
    n = proper_ranks(spec)
    flags = expected_flags(spec)
    _require(flags is not None, f"no closed form for {render(spec)}")
    if command == "flags":
        want = {label(m): str(v) for m, v in enumerate(flags)}
        _require(data == want, "flag vector differs from the closed form")
    elif command == "l-vector":
        scaled = scaled_l_table(flags, n)
        want = {label(m): str(Fraction(int(v), 1 << n)) for m, v in enumerate(scaled) if v}
        _require(data == {"n": n, "entries": want}, "L table differs from the transform of the closed form")
    elif command == "cd-index":
        _require(data.get("n") == n, f"degree {data.get('n')}, expected {n}")
        expanded = ab_expansion(data["terms"], n)
        _require(
            list(expanded) == list(h_table(flags, n)),
            "cd-index expanded to ab differs from the closed-form h table",
        )
    else:
        raise AssertionError(f"no check for command {command!r}")


def _check_eulerian(job: dict, data) -> None:
    if job["expect_exit"] == 0:
        _require(data == {"eulerian": True}, f"expected an Eulerian verdict, got {data}")
        return
    _require(data.get("eulerian") is False, f"expected a violation, got {data}")
    interval = data["interval"]
    (r1, i1), (r2, i2) = interval["low"], interval["high"]
    from cdposets.exprs import build_poset, parse_expression

    poset = build_poset(parse_expression(render(job["poset"])))
    _require(0 <= r1 < r2 <= poset.rank, f"bad rank pair {(r1, r2)}")
    even, odd = _interval_parities(poset, r1, i1, r2, i2)
    _require(even != odd, f"reported interval is balanced ({even} even, {odd} odd)")
    _require(
        (interval["even_count"], interval["odd_count"]) == (even, odd),
        f"reported counts {(interval['even_count'], interval['odd_count'])}, recount {(even, odd)}",
    )


def _interval_parities(poset, r1, i1, r2, i2) -> tuple[int, int]:
    """Elements of each rank parity (relative to r1) in [x, y], by BFS."""
    up = [{i1}]
    for r in range(r1, r2):
        reach = up[-1]
        up.append({j for i, j in poset.covers[r] if i in reach})
    down = {i2}
    counts = [0, 0]
    for r in range(r2, r1 - 1, -1):
        inside = up[r - r1] & down
        counts[(r - r1) % 2] += len(inside)
        if r > r1:
            down = {i for i, j in poset.covers[r - 1] if j in down}
    _require(i2 in up[-1], "reported elements are not comparable")
    return counts[0], counts[1]


def _check_witness(job: dict, data) -> None:
    word, copies = job["word"], job["copies"]
    witness, position = witness_word(word)
    prefix, suffix = word[:position], word[position + len(witness):]
    m = len(witness) - 2
    if witness == "ccdcc":
        base, core = f"lemma3({copies})", -2 * (copies - 1) ** 2
    elif m % 2 == 0:
        base, core = f"dp({m + 4},[[1,{m + 4}]],{copies})", -4 * copies
    else:
        base, core = f"lemma2({m + 4},{copies})", 4 * (copies**2 - copies**4)
    # boolean(k) factors for prefix and suffix; c^m always has coefficient 1
    factor = 1
    for part in (prefix, suffix):
        factor *= 1 if set(part) <= {"c"} else BOOLEAN_CD[part]
    expr = base
    if prefix:
        expr = f"join(boolean({degree(prefix) + 1}),{expr})"
    if suffix:
        expr = f"join({expr},boolean({degree(suffix) + 1}))"
    from cdposets.exprs import build_poset, parse_expression

    want = {
        "word": word,
        "witness": witness,
        "position": position,
        "base": base,
        "coefficient": factor * core,
        "trend": TREND,
        "rank": degree(word) + 1,
        "elements": build_poset(parse_expression(expr)).num_elements,
    }
    _require(data == want, f"got {data}, expected {want}")


# -- checks of corpus jobs ------------------------------------------------


def inequality_pair_count(n: int) -> int:
    """Valid (T, V) pairs: each maximal run of V meets T at most once."""
    total = 0
    for v in range(1 << n):
        count, run = 1, 0
        for s in range(n + 1):
            if s < n and v >> s & 1:
                run += 1
            else:
                count *= run + 1
                run = 0
        total += count
    return total


def check_corpus(job: dict, record) -> str | None:
    """Verify one corpus job's record exactly."""
    name = job["name"]
    try:
        _require(isinstance(record, dict), f"job raised {record!r}")
        spec = parse(name)
        n = record["n"]
        _require(n == proper_ranks(spec), f"n = {n}, expected {proper_ranks(spec)}")
        _require(record["eulerian"] is True, "corpus poset reported non-Eulerian")
        flags = list(record["flags"])
        closed = expected_flags(spec)
        if closed is not None:
            _require(flags == closed, "flag vector differs from the closed form")
        cd = record["cd"]
        _require(
            list(ab_expansion(cd, n)) == list(h_table(flags, n)),
            "cd-index expanded to ab differs from the h table",
        )
        _require(record["dual_cd"] == {w[::-1]: c for w, c in cd.items()}, "dual cd-index is not the reversal")
        if spec[0] == "lemma3":
            _require(cd.get("ccdcc") == -2 * (spec[1] - 1) ** 2, "lemma3 coefficient of ccdcc")
        pairs = record["pairs"]
        _require(len(pairs) == inequality_pair_count(n), f"{len(pairs)} (T, V) pairs")
        full = (1 << n) - 1
        for t, v, f_val, l_val in pairs:
            _require(f_val >= 0 and l_val >= 0, f"negative form at T={label(t)} V={label(v)}")
            scale = 1 << (bin(full & ~v).count("1") + bin(t).count("1"))
            _require(f_val == scale * l_val, f"forms not proportional at T={label(t)} V={label(v)}")
    except AssertionError as exc:
        return f"corpus {name}: {exc}"
    return None


def check(job: dict, output) -> str | None:
    if job["kind"] == "corpus":
        return check_corpus(job, output)
    return check_cli(job, output)
