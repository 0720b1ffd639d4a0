"""Self-checks for the benchmark itself.

Run from the root of a checkout::

    python3 perfbench/selfcheck.py

It makes two traced runs of each of the four workloads, in fresh
processes, and shows that

1. every traced pass returned byte-identical serialized reports to the
   untraced pass before it, so the wrappers do not change what runlab
   computes (each traced run compares them on every pass pair);
2. the two runs give exactly the same counts (``*.calls``,
   ``perms_scanned``, ``monomials_built``, ``rows_built``,
   ``max_coeff_bits``, ...);
3. every count that the seed-0 trace in ``baseline.json`` found above 0
   is above 0 again, so a wrapper that no longer sees the calls it
   counts cannot read as a gain;

and then that

4. a deliberately corrupted run triangle, one entry of
   ``triangles.triangle_R`` off by one, makes ``fail_ratio`` > 0 on
   ``verify-default`` -- the correctness gate is not vacuous;
5. reference seconds keep the size of a real change: passes that run
   ``verify-default``'s call twice take about twice as long as single
   passes, in reference seconds (see :mod:`probe`) as in raw seconds.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys

import run
import workloads
from tracer import COUNTS

#: Pairs of single and double passes timed by check 5.
SCALE_PAIRS = 6
#: How far check 5's reference-seconds ratio may lie from 2.
SCALE_TOLERANCE = 0.1


def traced_run(name: str, seed: int) -> "tuple[dict, str]":
    """The JSON result and the table of one ``--trace 1`` run in a fresh process."""
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", name,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=False)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"traced run of {name} printed no result:\n{done.stdout}{done.stderr}")
    return json.loads(lines[-1]), done.stdout


def corrupted_fail_ratio(identities, triangles) -> float:
    """fail_ratio of one verify-default pass with R(5, 3) off by one."""
    original = triangles.triangle_R

    def corrupt(n_max):
        tri = original(n_max)
        if tri.start <= 5 <= tri.max_n:
            tri.row(5)[3] += 1
        return tri

    triangles.triangle_R = corrupt
    try:
        runner = run.Runner(workloads.build("verify-default", 0, identities))
        runner.one_pass()
    finally:
        triangles.triangle_R = original
    return runner.failed / runner.attempted


def doubled_cost_ratios(identities) -> "tuple[float, float]":
    """(raw, reference) ratio of double to single ``verify-default`` pass times.

    Single and double passes alternate, so both see the same host.
    """
    single = run.Runner(workloads.build("verify-default", 0, identities))
    double = run.Runner(single.calls * 2)
    single.one_pass()  # warm-up
    times = {"single": ([], []), "double": ([], [])}
    for _ in range(SCALE_PAIRS):
        for key, runner in (("single", single), ("double", double)):
            ok, wall, _cpu, scale, _ = runner.one_pass()
            if not ok:
                raise RuntimeError(f"a {key} verify-default pass failed")
            times[key][0].append(wall)
            times[key][1].append(wall * scale)
    raw, ref = (
        statistics.median(times["double"][i]) / statistics.median(times["single"][i])
        for i in (0, 1)
    )
    return raw, ref


def main() -> int:
    baseline = json.loads((run.HERE / "baseline.json").read_text())["per_layer_seed0"]
    seed = 7  # any nonzero seed, so radicals-n24 runs on drawn inputs
    ok = True

    def report(passed: bool, text: str) -> None:
        nonlocal ok
        print(f"{'ok  ' if passed else 'FAIL'} {text}")
        ok &= passed

    for name in workloads.NAMES:
        (first, table1), (second, table2) = traced_run(name, seed), traced_run(name, seed)
        identical = all("traced reports byte-identical" in t for t in (table1, table2))
        report(identical and first["correct"] and second["correct"],
               f"{name}: traced reports byte-identical to untraced, every check passed")
        counts = [{k: r["metrics"][k]["value"] for k in COUNTS} for r in (first, second)]
        differ = sorted(k for k in COUNTS if counts[0][k] != counts[1][k])
        report(not differ, f"{name}: two traced runs give the same counts"
               + (f" (differ: {', '.join(differ)})" if differ else ""))
        lost = sorted(k for k in COUNTS if baseline[name].get(k, 0) > 0 and counts[0][k] <= 0)
        report(not lost, f"{name}: every count the baseline trace reached is above 0"
               + (f" (0 now: {', '.join(lost)})" if lost else ""))

    _, _, identities, _, triangles = run.import_runlab()
    ratio = corrupted_fail_ratio(identities, triangles)
    report(ratio > 0, f"verify-default: corrupted triangle_R gives fail_ratio {ratio:.4g}")
    raw, ref = doubled_cost_ratios(identities)
    report(abs(ref - 2) <= SCALE_TOLERANCE * 2,
           f"verify-default run twice per pass: {ref:.3f}x in reference seconds, "
           f"{raw:.3f}x raw (expected about 2)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
