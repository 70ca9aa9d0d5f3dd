"""A fixed corpus of small Eulerian posets used by verification suites.

Boolean lattices, doubles of chains, replicated-and-doubled chains over
every valid even interval system with n <= 6 and up to 2 copies, one glued
rank-7 family member, plus duals of all of those and a fixed list of
joins.  Every name is the expression that builds its poset.  Everything
here is small enough that exact flag computations stay fast.
"""

from __future__ import annotations

from .constructions import even_interval_systems, join
from .exprs import build_poset, parse_expression
from .poset import RankedPoset

Named = tuple[str, RankedPoset]


def _build(name: str) -> RankedPoset:
    return build_poset(parse_expression(name))


def base_corpus() -> list[Named]:
    names = [f"boolean({k})" for k in range(2, 6)]
    names += [f"double(chain({r}))" for r in range(2, 8)]
    for n in range(2, 7):
        for system in even_interval_systems(n):
            label = ",".join(f"[{a},{b}]" for a, b in system)
            names += [f"dp({n},[{label}],{copies})" for copies in (1, 2)]
    names.append("lemma3(2)")
    return [(name, _build(name)) for name in names]


def join_pairs() -> list[tuple[str, RankedPoset, RankedPoset]]:
    """Ten fixed pairs exercising the join across the corpus families."""
    pairs = [
        ("boolean(3)", "boolean(3)"),
        ("boolean(2)", "boolean(5)"),
        ("boolean(4)", "double(chain(2))"),
        ("double(chain(3))", "boolean(3)"),
        ("double(chain(2))", "double(chain(4))"),
        ("dp(2,[[1,2]],2)", "boolean(3)"),
        ("boolean(2)", "dp(4,[[1,4]],2)"),
        ("dp(4,[[1,2],[3,4]],2)", "double(chain(2))"),
        ("lemma3(2)", "boolean(2)"),
        ("dp(4,[[1,4]],1)", "dual(boolean(4))"),
    ]
    return [(f"join({left},{right})", _build(left), _build(right)) for left, right in pairs]


def eulerian_corpus() -> list[Named]:
    """Base corpus, duals of everything in it, and the fixed joins."""
    base = base_corpus()
    out = list(base)
    out += [(f"dual({name})", poset.dual()) for name, poset in base]
    out += [(name, join(left, right)) for name, left, right in join_pairs()]
    return out
