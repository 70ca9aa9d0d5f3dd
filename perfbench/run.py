#!/usr/bin/env python3
"""The cdposets benchmark: one command, three closed-loop workloads.

    python3 perfbench/run.py --workload {wide,tall,corpus} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``.  One client runs the seeded job list of the workload (a "pass")
again and again, each job starting when the previous one is done, until
``--seconds`` have passed and the workload's minimum number of passes is
reached.  ``wide`` and ``tall`` jobs call ``cdposets.cli.main(argv)``
in-process with stdout captured; ``corpus`` jobs call the library.

Every output is checked exactly after the passes (outside the timed
region): the first pass's outputs by ``checks.py``, later passes' by
equality with the first.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics: setup_s (median over fresh
processes, one started before each of the first passes, of the time from
process start until the job list is ready, calibrated), wall_cal_s (median time of one
pass), job_p50_cal_s, job_tail_cal_s (nearest-rank percentile, see
workloads.TAIL_PERCENTILE) and peak_rss_mb (read before the checks run).
Job times are calibrated against the host's momentary CPU speed (see
:func:`calibrate`); the raw seconds are printed too.  ``--trace 1`` runs untraced passes for a third of the
time, then traced passes (see tracing.py), and reports the per-layer
metrics as medians over the traced passes; the spans of the first traced
pass are written to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_PROBES = 5
# a calibration runs before a job when this long has passed since the last
CALIBRATE_EVERY_S = 0.25
# calibration time the *_cal_s metrics are scaled to: about its time on an
# idle core of a 2.1 GHz Xeon, so calibrated and raw seconds agree there
CALIBRATION_REF_S = 0.003
# the same for set-up: a fresh process that only imports numpy takes about
# this long on that core; set-up times are scaled by it
IMPORT_REF_S = 0.2
END_TO_END = ("setup_s", "wall_cal_s", "job_p50_cal_s", "job_tail_cal_s", "peak_rss_mb")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["wide", "tall", "corpus"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program():
    """Import cdposets from this checkout's src/, never from elsewhere."""
    if not (SRC / "cdposets" / "__init__.py").is_file():
        raise SystemExit(f"error: no cdposets sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import cdposets.cli

    if Path(cdposets.cli.__file__).resolve().parent != SRC / "cdposets":
        raise SystemExit(f"error: imported cdposets from {cdposets.cli.__file__}")


def setup(workload: str, seed: int) -> list[dict]:
    """Everything between process start and the first job being ready."""
    import_program()
    import workloads

    return workloads.generate(workload, seed)


def timed_process(argv: list[str]) -> tuple[float, str]:
    """Wall time and stdout of a fresh process, from spawn to exit."""
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise SystemExit(f"error: {argv[1:]} failed: {done.stderr.strip()}")
    return elapsed, done.stdout.strip()


def probe_setup(workload: str, seed: int) -> tuple[float, float, str]:
    """(time of a fresh process that only imports numpy, time of one that
    only sets up, the job-list digest the second printed).  The first is
    the calibration for the second: process start and imports slow down
    with the host more than the interpreter loop of :func:`calibrate`."""
    reference, _ = timed_process([sys.executable, "-c", "import numpy"])
    elapsed, digest = timed_process([
        sys.executable, str(HERE / "run.py"), "--setup-probe",
        "--workload", workload, "--seed", str(seed),
    ])
    return reference, elapsed, digest


# -- running jobs ------------------------------------------------------------


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter and int64 numpy work that does
    not touch the program.  On a shared host the CPU speed drifts by tens of
    percent over minutes; this time drifts with it, so dividing by it takes
    the drift out of the job times without taking out changes of the
    program."""
    import numpy as np

    start = time.perf_counter()
    table = {}
    for i in range(8000):
        table[i] = str(i * i % 9973)
    sorted(table.values())
    m = np.arange(4096, dtype=np.int64).reshape(64, 64)
    int((m @ m).sum())
    return time.perf_counter() - start


def run_cli(job: dict):
    """(exit code, stdout) of cdposets.cli.main in-process."""
    import cdposets.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cdposets.cli.main(list(job["argv"]))
        except Exception as exc:  # the check reports it as a failed job
            code = f"raised {type(exc).__name__}: {exc}"
    return code, out.getvalue()


def run_corpus(job: dict):
    """Parse, build, cd-index, Eulerian test, every (T, V) inequality pair in
    both forms, and the dual's cd-index, through the library API."""
    from cdposets import analysis, exprs, flags

    try:
        poset = exprs.build_poset(exprs.parse_expression(job["name"]))
        cd = flags.cd_index(poset)
        eulerian = poset.is_eulerian().eulerian
        table = flags.flag_vector(poset)
        lvec = flags.l_vector(table)
        pairs = [
            (t, v, analysis.inequality_f_form(table, t, v), analysis.inequality_l_form(lvec, t, v))
            for t, v in analysis.inequality_pairs(table.n)
        ]
        dual_cd = flags.cd_index(poset.dual())
    except Exception as exc:  # the check reports it as a failed job
        return f"raised {type(exc).__name__}: {exc}"
    return {
        "n": table.n,
        "flags": table.values,
        "cd": cd.terms,
        "eulerian": eulerian,
        "pairs": pairs,
        "dual_cd": dual_cd.terms,
    }


class Loop:
    """Closed-loop passes over one job list, keeping what the checks need."""

    def __init__(self, jobs: list[dict]):
        self.jobs = jobs
        self.runner = run_corpus if jobs[0]["kind"] == "corpus" else run_cli
        self.first: list = [None] * len(jobs)
        self.mismatched = [0] * len(jobs)
        self.passes = 0
        self.latencies: list[float] = []  # raw seconds
        self.walls: list[float] = []
        self.cal_latencies: list[float] = []  # scaled by each pass's calibration
        self.cal_walls: list[float] = []
        self.problems: list[str] = []  # faults of the run itself, not of a job

    def run_pass(self, tracer=None) -> float:
        wall, latencies, calibrations, calibrated = 0.0, [], [], -math.inf
        for index, job in enumerate(self.jobs):
            if time.perf_counter() - calibrated >= CALIBRATE_EVERY_S:
                calibrations.append(calibrate())
                calibrated = time.perf_counter()
            if tracer is not None:
                tracer.begin_job(index)
            start = time.perf_counter()
            output = self.runner(job)
            elapsed = time.perf_counter() - start
            wall += elapsed
            latencies.append(elapsed)
            if tracer is not None and job["kind"] == "cli":
                tracer.counts["cli.stdout_bytes"] += len(output[1])
            if self.passes == 0:
                self.first[index] = output
            elif output != self.first[index]:
                self.mismatched[index] += 1
        scale = CALIBRATION_REF_S / statistics.median(calibrations)
        self.passes += 1
        self.latencies += latencies
        self.walls.append(wall)
        self.cal_latencies += [t * scale for t in latencies]
        self.cal_walls.append(wall * scale)
        return wall

    def failures(self) -> tuple[int, list[str]]:
        """Failed job runs: every run of a job whose first output fails its
        check, plus later runs whose output differs from the first."""
        from checks import check

        failed, reasons = 0, []
        for index, job in enumerate(self.jobs):
            reason = check(job, self.first[index])
            if reason is not None:
                failed += self.passes
                reasons.append(reason)
            else:
                failed += self.mismatched[index]
                if self.mismatched[index]:
                    reasons.append(f"job {index}: output changed between passes")
        return failed, reasons


def nearest_rank(values: list[float], percentile: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def write_spans(tracer, jobs, workload, seed) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-seed{seed}.json"
    data = {
        "workload": workload,
        "seed": seed,
        "fields": ["name", "start", "end", "parent", "job"],
        "spans": tracer.spans,
        "dropped": tracer.dropped,
        "jobs": [job.get("argv") or job.get("name") for job in jobs],
    }
    path.write_text(json.dumps(data))
    return path


# -- the two modes -------------------------------------------------------------


def end_to_end(args, jobs) -> tuple[dict, Loop, list[str]]:
    import workloads

    notes = []
    loop = Loop(jobs)
    probes = []
    start = time.perf_counter()
    min_passes = workloads.MIN_PASSES[args.workload]
    # one setup probe before each pass, so they sample the whole run
    while loop.passes < min_passes or time.perf_counter() - start < args.seconds:
        if len(probes) < SETUP_PROBES:
            probes.append(probe_setup(args.workload, args.seed))
        loop.run_pass()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(probes) < SETUP_PROBES:
        probes.append(probe_setup(args.workload, args.seed))
    probe_times = [t for _, t, _ in probes]
    setup_cal = [t * IMPORT_REF_S / reference for reference, t, _ in probes]
    if {d for _, _, d in probes} != {workloads.digest(jobs)}:
        loop.problems.append("job list differs between processes with the same seed")
    pct = workloads.TAIL_PERCENTILE[args.workload]
    tail, beyond = nearest_rank(loop.cal_latencies, pct)
    metrics = {
        "setup_s": (statistics.median(setup_cal), "s"),
        "wall_cal_s": (statistics.median(loop.cal_walls), "s"),
        "job_p50_cal_s": (nearest_rank(loop.cal_latencies, 50)[0], "s"),
        "job_tail_cal_s": (tail, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes.append(
        f"job_tail_cal_s is p{pct}: {beyond} of {len(loop.latencies)} samples beyond it"
    )
    if beyond < 10:
        notes.append(f"warning: fewer than ten samples beyond p{pct}")
    notes.append(
        f"raw seconds: setup {statistics.median(probe_times):.4f}, "
        f"wall {statistics.median(loop.walls):.4f}, "
        f"job p50 {nearest_rank(loop.latencies, 50)[0]:.4f}, "
        f"job p{pct} {nearest_rank(loop.latencies, pct)[0]:.4f}"
    )
    notes.append(f"setup_s is the median of {SETUP_PROBES} fresh processes: "
                 + " ".join(f"{t:.3f}" for t in probe_times))
    notes.append("pass walls: " + " ".join(f"{w:.3f}" for w in loop.walls))
    notes.append("calibrated pass walls: " + " ".join(f"{w:.3f}" for w in loop.cal_walls))
    return metrics, loop, notes


def traced(args, jobs) -> tuple[dict, Loop, list[str]]:
    from tracing import PER_LAYER, Tracer

    loop = Loop(jobs)
    start = time.perf_counter()
    while loop.passes < 1 or time.perf_counter() - start < args.seconds / 3:
        loop.run_pass()
    untraced_walls = list(loop.walls)
    tracer = Tracer()
    tracer.install()
    per_pass = []
    try:
        while len(per_pass) < 1 or time.perf_counter() - start < args.seconds:
            tracer.reset()
            tracer.recording = not per_pass
            wall = loop.run_pass(tracer)
            per_pass.append(tracer.layer_metrics(wall))
    finally:
        tracer.uninstall()
    path = write_spans(tracer, jobs, args.workload, args.seed)
    units = {name: unit for name, unit, _ in PER_LAYER}
    # counts repeat exactly from pass to pass; take an observed value
    metrics = {
        name: ((statistics.median if units[name] == "s" else statistics.median_low)(
            p[name] for p in per_pass), units[name])
        for name in per_pass[0]
    }
    overhead = statistics.median(loop.walls[len(untraced_walls):]) - statistics.median(untraced_walls)
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics = {name: metrics[name] for name, _, _ in PER_LAYER}
    notes = [
        "pass walls: " + " ".join(f"{w:.3f}" for w in loop.walls),
        f"{len(untraced_walls)} untraced and {len(per_pass)} traced passes; "
        f"{len(tracer.spans)} spans written to {path.relative_to(ROOT)} "
        f"({tracer.dropped} beyond the limit not kept)"
    ]
    notes += dominance(metrics)
    return metrics, loop, notes


def dominance(metrics: dict) -> list[str]:
    """Share of the traced pass each workload's predicted layer takes."""
    wall = metrics["trace.wall_s"][0]
    value = {name: v for name, (v, _) in metrics.items()}
    shares = {
        "poset.comparability + poset.is_eulerian (wide)": (
            value["poset.comparability.self_s"] + value["poset.is_eulerian.self_s"]
        ),
        "flags.* + cli (tall)": value["cli.self_s"] + sum(
            v for k, v in value.items()
            if k.startswith("flags.") and k.endswith(".self_s") and k != "flags.bigint.self_s"
        ),
        "analysis.inequality (corpus)": value["analysis.inequality.self_s"],
    }
    return [f"share of traced wall_s, {k}: {v / wall:.3f}" for k, v in shares.items()]


def main(argv=None) -> int:
    args = parse_args(argv)
    jobs = setup(args.workload, args.seed)
    if args.setup_probe:
        import workloads

        print(workloads.digest(jobs))
        return 0
    measure = traced if args.trace else end_to_end
    metrics, loop, notes = measure(args, jobs)
    failed, reasons = loop.failures()
    correct = failed == 0 and not loop.problems
    attempted = len(loop.latencies)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{loop.passes} passes of {len(jobs)} jobs")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:.6g} {unit}")
    print(f"  {'failed_frac':42s} {failed / attempted:.6g} ({failed} of {attempted})")
    for line in notes + loop.problems + reasons[:20]:
        print(f"  {line}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
