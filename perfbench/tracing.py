"""Per-layer tracing from outside the program.

A :class:`Tracer` wraps every public function of the cdposets modules
(``cli``, ``exprs``, ``constructions``, ``poset``, ``flags``, ``analysis``,
``corpus``) at every binding a caller resolves: the defining module, every
module that imported the name (``cdposets.cli.flag_vector``,
``cdposets.analysis.cd_index``, the package namespace, ...), and the
``RankedPoset`` methods on the class, so recursive ``self.comparability``
calls are spans too.  ``cdposets.subsets`` is not wrapped: its helpers run
below a microsecond and are called millions of times.  Generator functions
are not wrapped, since a span would only cover creating the generator.

Each call is a span (name, start, end, parent, job).  Self time is the
span's duration minus the time covered by its child spans, accumulated as
spans close.  Counters are computed from arguments and results in hooks
that run outside the span; their time is excluded from the enclosing
span's self time as well.  Spans are kept in memory up to a limit and
written out by the caller.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "exprs", "constructions", "poset", "flags", "analysis", "corpus")
METHODS = ("comparability", "is_eulerian", "validate", "count_maximal_chains", "dual")

# (metric, unit, better); every traced run reports all of them
PER_LAYER = (
    ("cli.self_s", "s", "lower"),
    ("cli.stdout_bytes", "bytes", "lower"),
    ("exprs.parse.self_s", "s", "lower"),
    ("exprs.build.self_s", "s", "lower"),
    ("exprs.calls", "count", "lower"),
    ("constructions.self_s", "s", "lower"),
    ("constructions.calls", "count", "lower"),
    ("constructions.elements_out", "count", "lower"),
    ("poset.build.self_s", "s", "lower"),
    ("poset.comparability.self_s", "s", "lower"),
    ("poset.comparability.calls", "count", "lower"),
    ("poset.comparability.hit_ratio", "ratio", "higher"),
    ("poset.comparability.mult_adds_computed", "count", "lower"),
    ("poset.comparability.bytes_computed", "bytes", "lower"),
    ("poset.is_eulerian.self_s", "s", "lower"),
    ("poset.is_eulerian.calls", "count", "lower"),
    ("poset.is_eulerian.mult_adds_computed", "count", "lower"),
    ("poset.validate.self_s", "s", "lower"),
    ("poset.count_maximal_chains.self_s", "s", "lower"),
    ("flags.flag_vector.self_s", "s", "lower"),
    ("flags.flag_vector.int64_calls", "count", "higher"),
    ("flags.flag_vector.bigint_calls", "count", "lower"),
    ("flags.flag_vector.entries", "count", "lower"),
    ("flags.bigint.self_s", "s", "lower"),
    ("flags.flag_h.self_s", "s", "lower"),
    ("flags.l_vector.self_s", "s", "lower"),
    ("flags.cd_from_l.self_s", "s", "lower"),
    ("flags.cd_from_l.nonzero_l", "count", "lower"),
    ("flags.cd_from_l.words", "count", "lower"),
    ("flags.cd_index.calls", "count", "lower"),
    ("analysis.inequality.self_s", "s", "lower"),
    ("analysis.inequality.instances", "count", "lower"),
    ("analysis.negative_witness.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.outside_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)

INT64_SAFE = 2**62
# spans kept for the trace file, up to SPAN_LIMIT in all: the spans at the
# top two levels of each job, and the first SPANS_PER_JOB of each job below
SPANS_PER_JOB = 1_000
SPAN_LIMIT = 50_000


def _fibonacci(k: int) -> int:
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


# -- counter hooks: (tracer, *call args) before, (tracer, result, *call args) after --


def _comparability_before(tracer, poset, r1, r2):
    key = (id(poset), r1, r2)
    if key in tracer.seen:
        return None
    # keep the poset alive for the job, so its id is not reused
    tracer.seen.add(key)
    tracer.keep.append(poset)
    sizes = poset.level_sizes
    if 0 <= r1 <= r2 < len(sizes):
        counts = tracer.counts
        counts["poset.comparability.distinct"] += 1
        counts["poset.comparability.bytes_computed"] += 8 * sizes[r1] * sizes[r2]
        if r2 > r1 + 1:
            counts["poset.comparability.mult_adds_computed"] += (
                sizes[r1] * sizes[r2 - 1] * sizes[r2]
            )
    return None


def _is_eulerian_after(tracer, result, poset):
    sizes, rank = poset.level_sizes, poset.rank
    v = result.violation
    stop = (v.rank_low, v.rank_high) if v is not None else None
    total = 0
    for r1 in range(rank - 1):
        for r2 in range(r1 + 2, rank + 1):
            total += sizes[r1] * sizes[r2] * sum(sizes[r1 : r2 + 1])
            if (r1, r2) == stop:
                break
        else:
            continue
        break
    tracer.counts["poset.is_eulerian.mult_adds_computed"] += total


def _flag_vector_before(tracer, poset):
    try:
        chains = tracer.originals["count_maximal_chains"](poset)
    except ValueError:
        return None
    tracer.counts["flags.flag_vector.entries"] += 1 << poset.n
    if chains >= INT64_SAFE:
        tracer.counts["flags.flag_vector.bigint_calls"] += 1
        return "flags.bigint"
    tracer.counts["flags.flag_vector.int64_calls"] += 1
    return None


def _cd_from_l_before(tracer, table):
    tracer.counts["flags.cd_from_l.nonzero_l"] += sum(1 for v in table.values if v)
    tracer.counts["flags.cd_from_l.words"] += _fibonacci(table.n + 1)
    return None


def _elements_after(tracer, result, *args, **kwargs):
    elements = getattr(result, "num_elements", None)
    if isinstance(elements, int):
        tracer.counts["constructions.elements_out"] += elements


HOOKS = {
    "poset.comparability": (_comparability_before, None),
    "poset.is_eulerian": (None, _is_eulerian_after),
    "flags.flag_vector": (_flag_vector_before, None),
    "flags.cd_from_l": (_cd_from_l_before, None),
}


class Tracer:
    """Spans and counters for one traced run; install, run, uninstall."""

    def __init__(self):
        self.spans: list = []
        self.dropped = 0
        self.recording = False
        self.originals: dict = {}
        self._stack: list = []
        self._patches: list = []
        self._stats: dict[str, list] = {}
        self.reset()
        self.begin_job(None)

    def reset(self) -> None:
        """Zero self times, call counts and counters."""
        for stat in self._stats.values():
            stat[0], stat[1] = 0.0, 0
        self.counts: dict[str, int] = defaultdict(int)

    def begin_job(self, job) -> None:
        self.job = job
        self.job_spans = 0
        self.seen: set = set()
        self.keep: list = []

    def self_s(self, name: str) -> float:
        return self._stats[name][0] if name in self._stats else 0.0

    def calls(self, name: str) -> int:
        return self._stats[name][1] if name in self._stats else 0

    # -- wrapping -----------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        tracer = self
        stack = self._stack
        stat = self._stats.setdefault(name, [0.0, 0])
        clock = perf_counter

        def wrapper(*args, **kwargs):
            alias = None
            if before is not None:
                t = clock()
                alias = before(tracer, *args, **kwargs)
                if stack:
                    stack[-1][0] += clock() - t
            index = -1
            if tracer.recording:
                if len(tracer.spans) < SPAN_LIMIT and (
                    len(stack) < 2 or tracer.job_spans < SPANS_PER_JOB
                ):
                    index = len(tracer.spans)
                    tracer.spans.append(None)
                    tracer.job_spans += 1
                else:
                    tracer.dropped += 1
            frame = [0.0, index]
            parent = stack[-1][1] if stack else -1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                own = elapsed - frame[0]
                stat[0] += own
                stat[1] += 1
                if stack:
                    stack[-1][0] += elapsed
                if alias is not None:
                    tracer._stats[alias][0] += own
                if index >= 0:
                    tracer.spans[index] = (name, start, end, parent, tracer.job)
            if after is not None:
                t = clock()
                after(tracer, result, *args, **kwargs)
                if stack:
                    stack[-1][0] += clock() - t
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        import cdposets.cli  # noqa: F401  (loads every layer module)
        from cdposets.poset import RankedPoset

        self._stats.setdefault("flags.bigint", [0.0, 0])
        modules = [
            m for key, m in list(sys.modules.items())
            if key == "cdposets" or key.startswith("cdposets.")
        ]
        for layer in LAYERS:
            module = sys.modules[f"cdposets.{layer}"]
            for attr, fn in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                    or inspect.isgeneratorfunction(fn)
                ):
                    continue
                name = f"{layer}.{attr}"
                hooks = HOOKS.get(name, (None, _elements_after if layer == "constructions" else None))
                wrapper = self._wrap(name, fn, *hooks)
                for m in modules:
                    for bound, value in list(vars(m).items()):
                        if value is fn:
                            self._patch(m, bound, wrapper)
        for method in METHODS:
            fn = RankedPoset.__dict__[method]
            self.originals[method] = fn
            name = f"poset.{method}"
            self._patch(RankedPoset, method, self._wrap(name, fn, *HOOKS.get(name, (None, None))))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    # -- metrics ------------------------------------------------------

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of everything since the last :meth:`reset`."""
        s, calls, counts = self.self_s, self.calls, self.counts
        stats = self._stats

        def self_total(prefix):
            return sum(v[0] for k, v in stats.items() if k.startswith(prefix))

        def calls_total(prefix):
            return sum(v[1] for k, v in stats.items() if k.startswith(prefix))

        comparability_calls = calls("poset.comparability")
        distinct = counts["poset.comparability.distinct"]
        return {
            "cli.self_s": self_total("cli."),
            "cli.stdout_bytes": counts["cli.stdout_bytes"],
            "exprs.parse.self_s": s("exprs.parse_expression"),
            "exprs.build.self_s": s("exprs.build_poset"),
            "exprs.calls": calls_total("exprs."),
            "constructions.self_s": self_total("constructions."),
            "constructions.calls": calls_total("constructions."),
            "constructions.elements_out": counts["constructions.elements_out"],
            "poset.build.self_s": s("poset.chain") + s("poset.boolean") + s("poset.dual"),
            "poset.comparability.self_s": s("poset.comparability"),
            "poset.comparability.calls": comparability_calls,
            "poset.comparability.hit_ratio": (
                1 - distinct / comparability_calls if comparability_calls else 0.0
            ),
            "poset.comparability.mult_adds_computed": counts["poset.comparability.mult_adds_computed"],
            "poset.comparability.bytes_computed": counts["poset.comparability.bytes_computed"],
            "poset.is_eulerian.self_s": s("poset.is_eulerian"),
            "poset.is_eulerian.calls": calls("poset.is_eulerian"),
            "poset.is_eulerian.mult_adds_computed": counts["poset.is_eulerian.mult_adds_computed"],
            "poset.validate.self_s": s("poset.validate"),
            "poset.count_maximal_chains.self_s": s("poset.count_maximal_chains"),
            "flags.flag_vector.self_s": s("flags.flag_vector"),
            "flags.flag_vector.int64_calls": counts["flags.flag_vector.int64_calls"],
            "flags.flag_vector.bigint_calls": counts["flags.flag_vector.bigint_calls"],
            "flags.flag_vector.entries": counts["flags.flag_vector.entries"],
            "flags.bigint.self_s": s("flags.bigint"),
            "flags.flag_h.self_s": s("flags.flag_h"),
            "flags.l_vector.self_s": s("flags.l_vector"),
            "flags.cd_from_l.self_s": s("flags.cd_from_l"),
            "flags.cd_from_l.nonzero_l": counts["flags.cd_from_l.nonzero_l"],
            "flags.cd_from_l.words": counts["flags.cd_from_l.words"],
            "flags.cd_index.calls": calls("flags.cd_index"),
            "analysis.inequality.self_s": (
                s("analysis.inequality_f_form") + s("analysis.inequality_l_form")
            ),
            "analysis.inequality.instances": calls("analysis.inequality_f_form"),
            "analysis.negative_witness.self_s": s("analysis.negative_witness"),
            "trace.wall_s": wall_s,
            # the job loop, stdout capture, and wrapper time between spans
            "trace.outside_s": wall_s - sum(
                v[0] for k, v in stats.items() if k != "flags.bigint"
            ),
            "trace.spans": calls_total(""),
        }
