"""Outside-in tracer for runlab's five library layers.

The tracer wraps public functions and methods of ``runlab.identities``,
``triangles``, ``grammar``, ``permcore`` and ``exactnum`` from outside the
package: :meth:`Tracer.install` replaces each attribute with a wrapper
that records a span, and :meth:`Tracer.uninstall` puts the original back.
No file of the library changes.

A span is a name, a start, an end and the index of its parent span, kept
in flat arrays in memory.  A span's self time is its duration minus the
time its child spans cover.  Counts (permutations scanned, terms and
monomials built, rows built, coefficient sizes) are taken at the same
boundaries from the arguments and results of the wrapped calls.
"""

from __future__ import annotations

import functools
import time
from array import array
from math import factorial

#: The 15 ``check_*`` functions of ``runlab.identities``.
CHECKS = (
    "check_alt_from_runs",
    "check_altsubseq_gf",
    "check_carlitz",
    "check_convolutions",
    "check_david_barton",
    "check_dumont",
    "check_grammar_alt",
    "check_grammar_runs",
    "check_leibniz",
    "check_oracle",
    "check_peaks_grammar",
    "check_recurrence_consistency",
    "check_runs_from_peaks",
    "check_stanley_gf",
    "check_tangent_forms",
)

TRIANGLE_BUILDERS = (
    "triangle_R", "triangle_A", "triangle_W", "triangle_Wtilde", "triangle_euler",
    "poly_R", "poly_T", "poly_W", "poly_Wtilde", "poly_P", "poly_A",
)

#: exactnum span name -> (class, the methods it covers).
EXACTNUM_SPANS = {
    "exactnum.RatPoly.mul": ("RatPoly", ("__mul__", "__rmul__")),
    "exactnum.RatPoly.add": ("RatPoly", ("__add__", "__radd__")),
    "exactnum.RatPoly.eval": ("RatPoly", ("__call__",)),
    "exactnum.QuadExt.mul": ("QuadExt", ("__mul__", "__rmul__")),
    "exactnum.QuadExt.add": ("QuadExt", ("__add__", "__radd__")),
    "exactnum.QuadExt.inverse": ("QuadExt", ("inverse",)),
    "exactnum.PowerSeries.mul": ("PowerSeries", ("__mul__", "__rmul__")),
    "exactnum.PowerSeries.div": ("PowerSeries", ("__truediv__", "__rtruediv__")),
}

#: Metric names of one traced pass, in the order they are reported.
METRICS = (
    ("permcore.distribution.calls", "count"),
    ("permcore.distribution.self_s", "s"),
    ("permcore.perms_scanned", "count"),
    ("permcore.perms_per_s", "1/s"),
    ("permcore.scans_per_perm", "ratio"),
    ("grammar.d_apply.calls", "count"),
    ("grammar.d_apply.self_s", "s"),
    ("grammar.d_apply.terms_out", "count"),
    ("grammar.leibniz_check.self_s", "s"),
    ("grammar.monomials_built", "count"),
    ("grammar.monomials_per_term", "ratio"),
    ("triangles.build.calls", "count"),
    ("triangles.build.s", "s"),
    ("triangles.rows_built", "count"),
    ("triangles.rows_distinct", "count"),
    ("triangles.rebuild_ratio", "ratio"),
    *(
        (f"{name}.{field}", unit)
        for name in ("exactnum.RatPoly.mul", "exactnum.RatPoly.add", "exactnum.RatPoly.eval",
                     "exactnum.QuadExt.mul", "exactnum.QuadExt.add", "exactnum.QuadExt.inverse")
        for field, unit in (("calls", "count"), ("self_s", "s"))
    ),
    ("exactnum.PowerSeries.mul.self_s", "s"),
    ("exactnum.PowerSeries.div.self_s", "s"),
    ("exactnum.max_coeff_bits", "bits"),
    *((f"identities.{check}.s", "s") for check in CHECKS),
    ("identities.glue_self_s", "s"),
)

#: Metrics that must repeat exactly from one traced pass to the next.
COUNTS = tuple(name for name, unit in METRICS if unit == "count") + ("exactnum.max_coeff_bits",)


def _coeff_bits(poly) -> int:
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in poly.coeffs),
        default=0,
    )


class Tracer:
    """Spans and counts for the calls into runlab made while installed."""

    def __init__(self, exactnum, grammar, identities, permcore, triangles):
        self._mods = {
            "exactnum": exactnum, "grammar": grammar, "identities": identities,
            "permcore": permcore, "triangles": triangles,
        }
        self.names: "list[str]" = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._patches: list = []
        self._missing: "list[str]" = []
        self._n_seen: "set[int]" = set()
        self._rows_seen: set = set()
        self._counts = {"perms": 0, "terms": 0, "monomials": 0, "rows": 0, "bits": 0}

    # -- recording -------------------------------------------------------

    def reset(self) -> None:
        """Drop the spans and counts of the previous pass."""
        for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
            del arr[:]
        self._n_seen.clear()
        self._rows_seen.clear()
        for key in self._counts:
            self._counts[key] = 0

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _span(self, fn, name: str, hook=None):
        """``fn`` wrapped to record a span named ``name``.

        ``hook(result)`` takes the counts; it runs in a span of its
        own, ``trace.hook``, so its cost is no layer's self time.
        """
        nid = self._name_id(name)
        hid = self._name_id("trace.hook")
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if hook is not None:
                j = len(names)
                names.append(hid)
                parents.append(stack[-1])
                ends.append(0.0)
                starts.append(clock())
                hook(result)
                ends[j] = clock()
            return result

        return traced

    def _class(self, module: str, name: str):
        """Class ``name`` of a runlab module, or None (noted as missing)."""
        cls = getattr(self._mods[module], name, None)
        if cls is None:
            self._missing.append(f"{module}.{name}")
        return cls

    def _patch(self, owner, attr: str, make) -> None:
        original = vars(owner).get(attr)
        if original is None:
            self._missing.append(f"{owner.__name__}.{attr}")
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        """Wrap every traced name.

        Raises :class:`RuntimeError`, with nothing left wrapped, when runlab
        no longer defines one of them: its metrics would read 0 and look
        like a gain, so the tracer must be updated instead.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._missing = []
        try:
            self._install()
            if self._missing:
                raise RuntimeError("perfbench tracer: runlab no longer defines "
                                   + ", ".join(self._missing))
        except BaseException:
            self.uninstall()
            raise

    def _install(self) -> None:
        m = self._mods
        counts = self._counts

        def on_distribution(dist):
            counts["perms"] += factorial(dist.n)
            self._n_seen.add(dist.n)

        def on_d_apply(poly):
            counts["terms"] += len(poly)

        def on_ratpoly_mul(poly):
            if isinstance(poly, m["exactnum"].RatPoly):
                bits = _coeff_bits(poly)
                if bits > counts["bits"]:
                    counts["bits"] = bits

        for check in CHECKS:
            self._patch(m["identities"], check,
                        lambda fn, c=check: self._span(fn, f"identities.{c}"))
        for builder in TRIANGLE_BUILDERS:
            def on_rows(family, builder=builder):
                rows = list(family.indices())
                counts["rows"] += len(rows)
                self._rows_seen.update((builder, n) for n in rows)
            self._patch(m["triangles"], builder,
                        lambda fn, hook=on_rows: self._span(fn, "triangles.build", hook))
        self._patch(m["grammar"], "d_apply",
                    lambda fn: self._span(fn, "grammar.d_apply", on_d_apply))
        self._patch(m["grammar"], "leibniz_check",
                    lambda fn: self._span(fn, "grammar.leibniz_check"))

        def count_monomials(init):
            @functools.wraps(init)
            def counted(*args, **kwargs):
                counts["monomials"] += 1
                return init(*args, **kwargs)
            return counted

        monomial = self._class("grammar", "Monomial")
        if monomial is not None:
            self._patch(monomial, "__init__", count_monomials)
        self._patch(m["permcore"], "distribution",
                    lambda fn: self._span(fn, "permcore.distribution", on_distribution))
        for name, (cls_name, methods) in EXACTNUM_SPANS.items():
            cls = self._class("exactnum", cls_name)
            if cls is None:
                continue
            hook = on_ratpoly_mul if name == "exactnum.RatPoly.mul" else None
            for method in methods:
                self._patch(cls, method, lambda fn, n=name, h=hook: self._span(fn, n, h))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reading ---------------------------------------------------------

    def metrics(self, wall_s: float, scale: float) -> "dict[str, float]":
        """Per-layer metrics of the pass just traced, which took ``wall_s``.

        Every duration is multiplied by ``scale`` (see :mod:`probe`).

        ``.calls`` counts spans, ``.self_s`` sums self time, and ``.s`` sums
        inclusive time over spans whose parent has another name, so a
        builder called by a builder (``triangle_W`` -> ``poly_W``) is
        timed once.
        """
        names = self.names
        nid, par = self.span_name, self.span_parent
        dur = [(e - s) * scale for s, e in zip(self.span_start, self.span_end)]
        child = [0.0] * len(dur)
        for i, p in enumerate(par):
            if p >= 0:
                child[p] += dur[i]
        calls = dict.fromkeys(names, 0)
        self_s = dict.fromkeys(names, 0.0)
        outer_s = dict.fromkeys(names, 0.0)
        for i, p in enumerate(par):
            name = names[nid[i]]
            calls[name] += 1
            self_s[name] += dur[i] - child[i]
            if p < 0 or nid[p] != nid[i]:
                outer_s[name] += dur[i]

        out: "dict[str, float]" = {}
        for metric, _unit in METRICS:
            span, _, field = metric.rpartition(".")
            if field == "calls":
                out[metric] = calls.get(span, 0)
            elif field == "self_s":
                out[metric] = self_s.get(span, 0.0)
            elif field == "s":
                out[metric] = outer_s.get(span, 0.0)
        c = self._counts
        distinct = sum(factorial(n) for n in self._n_seen)
        dist_self = out["permcore.distribution.self_s"]
        out["permcore.perms_scanned"] = c["perms"]
        out["permcore.perms_per_s"] = c["perms"] / dist_self if dist_self else 0.0
        out["permcore.scans_per_perm"] = c["perms"] / distinct if distinct else 0.0
        out["grammar.d_apply.terms_out"] = c["terms"]
        out["grammar.monomials_built"] = c["monomials"]
        out["grammar.monomials_per_term"] = c["monomials"] / c["terms"] if c["terms"] else 0.0
        out["triangles.rows_built"] = c["rows"]
        out["triangles.rows_distinct"] = len(self._rows_seen)
        out["triangles.rebuild_ratio"] = (
            c["rows"] / len(self._rows_seen) if self._rows_seen else 0.0
        )
        out["exactnum.max_coeff_bits"] = c["bits"]
        # identities' own time: whatever no lower layer (or hook) accounts for.
        lower = sum(t for name, t in self_s.items() if not name.startswith("identities."))
        out["identities.glue_self_s"] = wall_s * scale - lower
        return {metric: out[metric] for metric, _unit in METRICS}

    def write_spans(self, path) -> None:
        """Write the spans of the last traced pass as tab-separated lines:
        index, name, parent index (-1 for none), start and end in seconds."""
        with open(path, "w") as fh:
            fh.write("i\tname\tparent\tstart\tend\n")
            for i, (n, p) in enumerate(zip(self.span_name, self.span_parent)):
                fh.write(f"{i}\t{self.names[n]}\t{p}\t"
                         f"{self.span_start[i]!r}\t{self.span_end[i]!r}\n")
