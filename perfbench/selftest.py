#!/usr/bin/env python3
"""Self-tests of the benchmark, run from the root of a source checkout:

    python3 perfbench/selftest.py [--workload NAME ...]

1. Job lists: the same seed gives a byte-identical list, other seeds give
   the same multiset of job sizes, and every seeded interval system passes
   ``validate_even_interval_system``.
2. Checks: one pass of each workload passes every check, and a corrupted
   copy of each job's output is counted as a failed job.
3. The boolean cd coefficients used by the witness checks equal those the
   multinomial h table forces.
4. Two traced runs of the same seed, in separate processes, report
   identical counters.
5. BENCHMARK.json names the metrics run.py reports.

Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import copy
import json
import subprocess
import sys

import run
import workloads
from checks import BOOLEAN_CD, ab_expansion, expected_flags, h_table

FAILURES: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {what}")
    if not condition:
        FAILURES.append(what)


def corrupt(output):
    """A copy of a job output with one value changed."""
    if isinstance(output, dict):
        bad = copy.deepcopy(output)
        word = next(iter(bad["cd"]))
        bad["cd"][word] += 1
        return bad
    code, stdout = output
    digits = [i for i, ch in enumerate(stdout) if ch.isdigit()]
    if not digits:
        return code, stdout.replace("true", "false")
    i = digits[-1]
    return code, stdout[:i] + str((int(stdout[i]) + 1) % 10) + stdout[i + 1:]


def test_job_lists(workload: str) -> None:
    first = workloads.generate(workload, 7)
    again = workloads.generate(workload, 7)
    expect(json.dumps(first) == json.dumps(again), f"{workload}: same seed, identical job list")
    sizes = sorted(json.dumps(j["size"]) for j in first)
    for seed in (8, 9, 10):
        other = workloads.generate(workload, seed)
        expect(
            sorted(json.dumps(j["size"]) for j in other) == sizes,
            f"{workload}: seed {seed} has the same size multiset",
        )
    if workload == "tall":
        from cdposets.constructions import validate_even_interval_system

        systems = []
        for seed in range(20):
            for job in workloads.generate(workload, seed):
                stack = [job["poset"]]
                while stack:
                    spec = stack.pop()
                    if spec[0] == "dp":
                        systems.append((spec[1], spec[2]))
                    stack += [s for s in spec[1:] if isinstance(s, list) and s and isinstance(s[0], str)]
        expect(
            all(not validate_even_interval_system(n, [tuple(p) for p in s]) for n, s in systems),
            f"tall: {len(systems)} seeded interval systems are valid",
        )


def test_checks(workload: str) -> None:
    jobs = workloads.generate(workload, 1)
    loop = run.Loop(jobs)
    loop.run_pass()
    failed, reasons = loop.failures()
    expect(failed == 0, f"{workload}: one pass, every output passes its check {reasons[:3]}")
    good = list(loop.first)
    for index, job in enumerate(jobs):
        loop.first = list(good)
        loop.first[index] = corrupt(good[index])
        failed, _ = loop.failures()
        expect(failed == 1, f"{workload}: corrupted output of job {index} counted as failed")
    if workload != "corpus":
        loop.first = list(good)
        code, stdout = good[0]
        loop.first[0] = (1 - code, stdout)
        expect(loop.failures()[0] == 1, f"{workload}: wrong exit code counted as failed")


def test_boolean_cd() -> None:
    for k, words in ((2, ["c"]), (3, ["cc", "d"]), (4, ["ccc", "cd", "dc"])):
        terms = {w: BOOLEAN_CD[w] for w in words}
        n = k - 1
        expect(
            list(ab_expansion(terms, n)) == list(h_table(expected_flags(["boolean", k]), n)),
            f"cd-index of boolean({k}) is {terms}",
        )


def traced_counts(workload: str, seed: int) -> dict:
    argv = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "0", "--trace", "1"]
    done = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items() if m["unit"] != "s"}


def test_traced_counts(workload: str) -> None:
    first, second = traced_counts(workload, 3), traced_counts(workload, 3)
    expect(first == second, f"{workload}: two traced runs report identical counters")
    expect(first["trace.spans"] > 0, f"{workload}: traced run recorded spans")


def test_benchmark_json() -> None:
    from tracing import PER_LAYER

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect(
        [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(PER_LAYER),
        "BENCHMARK.json per_layer matches the traced run's metrics",
    )
    expect(
        [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS),
        "BENCHMARK.json workloads match workloads.WORKLOADS",
    )
    expect(
        {m["name"] for m in bench["end_to_end"]} == set(run.END_TO_END),
        "BENCHMARK.json end_to_end matches run.END_TO_END",
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="self-tests of the benchmark")
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    names = parser.parse_args(argv).workload or list(workloads.WORKLOADS)
    run.import_program()
    test_benchmark_json()
    test_boolean_cd()
    for workload in names:
        test_job_lists(workload)
        test_checks(workload)
        test_traced_counts(workload)
    print(f"{len(FAILURES)} failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
