"""runlab's benchmark: one workload per run, end-to-end or traced.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload verify-default --seed 1 --seconds 18 --trace 0

The run imports runlab from ``src/`` of the checkout, builds the
workload's calls from the seed (:mod:`workloads`), makes one untimed
warm-up pass, then repeats whole passes for ``--seconds`` seconds (at
least :data:`MIN_PASSES`).  Every pass is checked against the reports the
workload expects; a pass that fails is counted in ``failed`` and never
used as a timing.  Everything runs in this one process and thread, apart
from the fresh interpreters that time ``import runlab.cli``.

``--trace 0`` prints the end-to-end metrics:

* ``wall_s`` -- median time of one pass;
* ``peak_rss_mb`` -- peak resident memory of the largest process that ran
  the workload: this one, or a child it waited for during the passes;
* ``setup_s`` -- median time for a fresh interpreter to ``import runlab.cli``,
  over :data:`SETUP_SAMPLES` interpreters.

``fail_ratio`` (checks failed or raised / checks attempted) is printed in
the table; the JSON line carries it as ``failed`` and ``attempted``.

``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics of :mod:`tracer`, plus ``identities.cpu_s`` (CPU time
of an untraced pass, this process's and that of children it waited for)
and ``trace_overhead`` (traced over untraced pass time).

Every time is in reference seconds: measured seconds scaled by the host
speed that :mod:`probe` samples during the same pass or import, so that a
slow or fast moment of the host does not read as a slow or fast program.
Raw medians are printed in the table too.  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import probe  # noqa: E402  (the benchmark's own modules, next to this file)
import workloads  # noqa: E402

#: Timed passes made even when ``--seconds`` runs out first.
MIN_PASSES = 3
#: Fresh interpreters started to time ``import runlab.cli``.
SETUP_SAMPLES = 11
#: Where a traced run writes the spans of its last traced pass (git-ignored).
SPAN_DIR = ROOT / ".perfbench"

# Run by a fresh interpreter: the import time of runlab.cli, scaled by
# probe samples taken right after it.  Only sys and time are loaded
# before the clock starts.
_SETUP_CODE = """\
import sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
start = time.perf_counter()
import runlab.cli
took = time.perf_counter() - start
import probe
print(took, took * probe.scale(probe.sample(15)))
"""


def import_runlab():
    """runlab's modules from ``src/`` of this checkout, never an installed copy."""
    sys.path.insert(0, str(SRC))
    from runlab import exactnum, grammar, identities, permcore, triangles

    if Path(identities.__file__).resolve().parent != SRC / "runlab":
        raise SystemExit(f"perfbench: imported runlab from {identities.__file__}, not {SRC}")
    return exactnum, grammar, identities, permcore, triangles


def setup_time() -> "tuple[float, float]":
    """(raw, reference) seconds a fresh interpreter takes to ``import runlab.cli``."""
    cmd = [sys.executable, "-E", "-s", "-c", _SETUP_CODE, str(HERE), str(SRC)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
    raw, ref = done.stdout.split()
    return float(raw), float(ref)


class Runner:
    """Runs passes of one workload and keeps the count of checks and failures."""

    def __init__(self, calls: "list[workloads.Call]"):
        self.calls = calls
        self.attempted = 0
        self.failed = 0
        #: Set when traced and untraced passes returned different reports.
        self.inconsistent = False

    def one_pass(self) -> "tuple[bool, float, float, float, str]":
        """One pass: (passed, wall s, CPU s, probe scale, serialized reports).

        Multiply a time of this pass by the probe scale for reference seconds.
        """
        results = []  # what each call returned, or None where it raised
        with probe.SpeedProbe() as speed:
            cpu0 = _cpu_time()
            t0 = time.perf_counter()
            for call in self.calls:
                try:
                    results.append(call.run())
                except Exception:  # a raised check is a failed check
                    print(f"perfbench: {call.label} raised", file=sys.stderr)
                    traceback.print_exc(file=sys.stderr)
                    results.append(None)
            wall = time.perf_counter() - t0
            cpu = _cpu_time() - cpu0
        outcomes = [
            None if r is None else [x.to_json_obj() for x in (r if isinstance(r, list) else [r])]
            for r in results
        ]
        failed = workloads.check_pass(self.calls, outcomes)
        self.attempted += sum(len(c.expected) for c in self.calls)
        self.failed += failed
        return failed == 0, wall, cpu, speed.scale(), json.dumps(outcomes, sort_keys=True)


def _cpu_time() -> float:
    """CPU seconds of this process plus those of the children it waited for."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _peak_kb(who) -> int:
    return resource.getrusage(who).ru_maxrss


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def measure_setup() -> "list[tuple[float, float]]":
    """(raw, reference) import times of :data:`SETUP_SAMPLES` fresh interpreters.

    Runs before this process imports runlab: the first, untimed
    interpreter writes the byte-code cache, so this process loads it
    instead of compiling, and its peak memory does not depend on whether
    the cache was there.
    """
    setup_time()
    return [setup_time() for _ in range(SETUP_SAMPLES)]


def run_end_to_end(runner: Runner, seconds: float,
                   setup: "list[tuple[float, float]]") -> "tuple[dict, list[str]]":
    # The set-up interpreters are children too: a child's peak counts only
    # when a child waited for during the passes went above theirs.
    setup_child_kb = _peak_kb(resource.RUSAGE_CHILDREN)
    runner.one_pass()  # warm-up: lazy set-up and allocator growth
    raw, ref = [], []
    passes = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or passes < MIN_PASSES:
        passes += 1
        ok, wall, _cpu, scale, _ = runner.one_pass()
        if ok:
            raw.append(wall)
            ref.append(wall * scale)
    if not ref:
        return {}, []
    peak_kb = _peak_kb(resource.RUSAGE_SELF)
    child_kb = _peak_kb(resource.RUSAGE_CHILDREN)
    if child_kb > setup_child_kb:
        peak_kb = max(peak_kb, child_kb)
    metrics = {
        "wall_s": (statistics.median(ref), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "setup_s": (statistics.median(r for _, r in setup), "s"),
    }
    spread = ", ".join(_fmt(q) for q in statistics.quantiles(ref, n=4)) if len(ref) > 1 else "-"
    notes = [
        f"wall_s: median of {len(ref)} passes (quartiles {spread}); no high "
        f"percentile (one needs at least 10 samples beyond it)",
        f"raw medians: wall {_fmt(statistics.median(raw))} s, "
        f"setup {_fmt(statistics.median(r for r, _ in setup))} s",
    ]
    return metrics, notes


def run_traced(runner: Runner, seconds: float, tr, span_file: Path) -> "tuple[dict, list[str]]":
    from tracer import COUNTS, METRICS

    runner.one_pass()  # warm-up, untimed
    plain, cpus, traced, layer_runs = [], [], [], []
    pairs = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or pairs < 2:
        pairs += 1
        ok, wall, cpu, scale, plain_reports = runner.one_pass()
        if ok:
            plain.append(wall * scale)
            cpus.append(cpu * scale)
        tr.reset()
        tr.install()
        try:
            ok_t, wall_t, _cpu, scale_t, traced_reports = runner.one_pass()
        finally:
            tr.uninstall()
        if traced_reports != plain_reports:
            print("perfbench: traced reports differ from untraced ones", file=sys.stderr)
            runner.inconsistent = True
        if ok_t:
            traced.append(wall_t * scale_t)
            layer_runs.append(tr.metrics(wall_t, scale_t))
    if not (plain and traced):
        return {}, []
    SPAN_DIR.mkdir(exist_ok=True)
    tr.write_spans(span_file)
    metrics = {}
    for name, unit in METRICS:
        if name in COUNTS:
            metrics[name] = (layer_runs[0][name], unit)
        else:
            metrics[name] = (statistics.median(run[name] for run in layer_runs), unit)
    metrics["identities.cpu_s"] = (statistics.median(cpus), "s")
    metrics["trace_overhead"] = (statistics.median(traced) / statistics.median(plain), "ratio")
    notes = [
        "traced reports " + ("differed from" if runner.inconsistent else "byte-identical to")
        + f" untraced ones in {pairs} pass pairs",
        f"{len(traced)} traced and {len(plain)} untraced passes; layer metrics are "
        f"medians over traced passes, identities.cpu_s over untraced ones",
        f"spans of the last traced pass: {span_file.relative_to(ROOT)}",
    ]
    drift = [n for n in COUNTS if len({run[n] for run in layer_runs}) > 1]
    if drift:
        notes.append("counts that differed between traced passes: " + ", ".join(drift))
    return metrics, notes


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "runlab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no runlab sources under {SRC}")
    setup = None if args.trace else measure_setup()
    exactnum, grammar, identities, permcore, triangles = import_runlab()
    runner = Runner(workloads.build(args.workload, args.seed, identities))
    if args.trace:
        from tracer import Tracer

        tr = Tracer(exactnum, grammar, identities, permcore, triangles)
        span_file = SPAN_DIR / f"spans-{args.workload}.tsv"
        metrics, notes = run_traced(runner, args.seconds, tr, span_file)
    else:
        metrics, notes = run_end_to_end(runner, args.seconds, setup)

    correct = runner.failed == 0 and not runner.inconsistent and bool(metrics)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"  {'fail_ratio':<42} {_fmt(runner.failed / runner.attempted):>14} ratio "
          f"({runner.failed} of {runner.attempted} checks failed or raised)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<42} {_fmt(value):>14} {unit}")
    for note in notes:
        print(f"  # {note}")
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
