"""The benchmark's four workloads: fixed lists of ``runlab.identities`` calls.

Each workload is built from a seed into a list of :class:`Call`.  A call
knows the reports it must return (identity plus the params the benchmark
pinned), so every pass can be checked without trusting the program.
Only ``radicals-n24`` depends on the seed; the other three have fixed
inputs by definition.  Seed 0 is the library's stock input everywhere.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

NAMES = ("verify-default", "families-n40", "radicals-n24", "oracle-s9")


@dataclass(frozen=True)
class Call:
    """One library call and the (identity, params) of every report it returns.

    ``expected`` is sorted by identity, the order ``run_suite`` returns.
    A report matches when its identity is equal, each pinned param is
    equal (extra params the library may add are allowed), and it passed.
    """

    label: str
    run: "Callable[[], object]"
    expected: "tuple[tuple[str, dict], ...]"


def _verify_default(idn) -> "list[Call]":
    # What `runlab verify all` runs: run_suite("all") at library defaults.
    exp = [
        ("closed/alt-from-runs", {"n_max": 25}),
        ("closed/david-barton", {"n_max": 12, "points": 27}),
        ("closed/runs-from-peaks", {"n_max": 20, "points": 22}),
        ("closed/tangent", {"n_max": 12, "points": 27}),
        ("gf/altsubseq[x0=1/2]", {"x0": "1/2", "order": 12}),
        ("gf/altsubseq[x0=1/3]", {"x0": "1/3", "order": 12}),
        ("gf/carlitz[x0=0]", {"x0": "0", "order": 12}),
        ("gf/carlitz[x0=1/2]", {"x0": "1/2", "order": 12}),
        ("gf/carlitz[x0=1/3]", {"x0": "1/3", "order": 12}),
        ("gf/stanley[t0=1/2]", {"t0": "1/2", "order": 12}),
        ("gf/stanley[t0=1/3]", {"t0": "1/3", "order": 12}),
        ("grammar/altsubseq", {"n_max": 12}),
        ("grammar/eulerian", {"n_max": 12, "oracle_n_max": 8}),
        ("grammar/leibniz", {"n_max": 10, "cases": 100, "seed": 20240801}),
        ("grammar/peaks", {"n_max": 12, "oracle_n_max": 8}),
        ("grammar/runs", {"n_max": 12}),
        ("oracle/triangles", {"n_max": 8}),
        ("poly/convolutions", {"n_max": 20}),
        ("poly/recurrences", {"n_max": 20}),
    ]
    return [Call("run_suite('all')", lambda: idn.run_suite("all"), tuple(exp))]


def _families_n40(idn) -> "list[Call]":
    return [
        Call("check_convolutions(40)", lambda: idn.check_convolutions(40),
             (("poly/convolutions", {"n_max": 40}),)),
        Call("check_recurrence_consistency(100)",
             lambda: idn.check_recurrence_consistency(100),
             (("poly/recurrences", {"n_max": 100}),)),
        Call("check_alt_from_runs(100)", lambda: idn.check_alt_from_runs(100),
             (("closed/alt-from-runs", {"n_max": 100}),)),
    ]


#: run_suite option -> (report identity, param name, stock base points).
_GF = {
    "carlitz_x0s": ("gf/carlitz[x0={}]", "x0", ("0", "1/3", "1/2")),
    "stanley_t0s": ("gf/stanley[t0={}]", "t0", ("1/3", "1/2")),
    "final_x0s": ("gf/altsubseq[x0={}]", "x0", ("1/3", "1/2")),
}
#: The GF base points of a seeded run come from the first few points of
#: this plan, so their heights, and hence their cost, stay close to stock.
_GF_POOL = 8


def _draw(rng: random.Random, pool: list, k: int) -> list:
    """``k`` points of ``pool``, kept in pool order."""
    return [pool[i] for i in sorted(rng.sample(range(len(pool)), k))]


def radical_inputs(idn, seed: int) -> "tuple[dict, dict]":
    """Sample plans and GF base points for ``radicals-n24``.

    Seed 0 gives the stock certified plans and base points.  Any other
    seed draws plans of the same certified size from the first
    ``3/2 * size`` points of the same filtered rational pool
    (``default_plan`` is a prefix of that pool), and GF base points from
    the first ``_GF_POOL`` points of the ``david-barton`` pool, which all
    lie in (-1, 1) with 1 - x^2 not a square.
    """
    sizes = {"tangent": 2 * 24 + 3, "david-barton": 2 * 24 + 3, "runs-from-peaks": 40 + 2}
    if seed == 0:
        plans = {kind: idn.default_plan(kind, k) for kind, k in sizes.items()}
        gf = {opt: tuple(Fraction(x) for x in stock) for opt, (_, _, stock) in _GF.items()}
        return plans, gf
    rng = random.Random(seed)
    plans = {}
    for kind, k in sizes.items():
        pool = list(idn.default_plan(kind, k + k // 2).points)
        plans[kind] = idn.SamplePlan(tuple(_draw(rng, pool, k)))
    gf_pool = list(idn.default_plan("david-barton", _GF_POOL).points)
    gf = {opt: tuple(_draw(rng, gf_pool, len(stock))) for opt, (_, _, stock) in _GF.items()}
    return plans, gf


def _radicals_n24(idn, seed: int) -> "list[Call]":
    plans, gf = radical_inputs(idn, seed)
    gf_exp = sorted(
        (_GF[opt][0].format(x), {_GF[opt][1]: str(x), "order": 40})
        for opt, points in gf.items()
        for x in points
    )
    return [
        Call("check_tangent_forms(24)",
             lambda: idn.check_tangent_forms(24, plans["tangent"]),
             (("closed/tangent", {"n_max": 24, "points": len(plans["tangent"])}),)),
        Call("check_david_barton(24)",
             lambda: idn.check_david_barton(24, plans["david-barton"]),
             (("closed/david-barton",
               {"n_max": 24, "points": len(plans["david-barton"])}),)),
        Call("check_runs_from_peaks(40)",
             lambda: idn.check_runs_from_peaks(40, plans["runs-from-peaks"]),
             (("closed/runs-from-peaks",
               {"n_max": 40, "points": len(plans["runs-from-peaks"])}),)),
        Call("run_suite('gf', order=40)",
             lambda: idn.run_suite("gf", order=40, **gf),
             tuple(gf_exp)),
    ]


def _oracle_s9(idn) -> "list[Call]":
    # The library call, not `runlab verify oracle --n-max 9`, which the CLI
    # clamps to S_8: this workload must mean S_9 before and after that fix.
    return [Call("check_oracle(9)", lambda: idn.check_oracle(9),
                 (("oracle/triangles", {"n_max": 9}),))]


def build(name: str, seed: int, idn) -> "list[Call]":
    """The calls of workload ``name`` for ``seed``; ``idn`` is runlab.identities.

    Calls look up ``idn.check_*`` when they run, so a tracer that wraps
    those functions sees them.
    """
    if name == "verify-default":
        return _verify_default(idn)
    if name == "families-n40":
        return _families_n40(idn)
    if name == "radicals-n24":
        return _radicals_n24(idn, seed)
    if name == "oracle-s9":
        return _oracle_s9(idn)
    raise ValueError(f"unknown workload {name!r} (known: {', '.join(NAMES)})")


def check_pass(calls: "list[Call]", outcomes: list) -> int:
    """Number of expected reports a pass failed to deliver as passed.

    ``outcomes[i]`` is the serialized reports (``CheckReport.to_json_obj()``)
    that ``calls[i].run()`` returned, or None if it raised; a raised call
    fails every report it was expected to return.
    """
    failed = 0
    for call, objs in zip(calls, outcomes):
        if objs is None or len(objs) != len(call.expected):
            failed += len(call.expected)
            continue
        for obj, (identity, params) in zip(objs, call.expected):
            ok = (
                obj["identity"] == identity
                and obj["passed"] is True
                and obj["first_failure"] is None
                and all(obj["params"].get(k) == v for k, v in params.items())
            )
            failed += not ok
    return failed
