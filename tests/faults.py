"""Catalogue of injected faults, each shown to fail its `runlab verify` suite.

A fault replaces one attribute of runlab with a broken version of it and
names the suite that must then fail (exit 1).  Run one with

    PYTHONPATH=src python tests/faults.py NAME FORMAT

where FORMAT is plain, json or csv; with no argument the script lists the
fault names, one a line.  Imports only the standard library and runlab.
"""

import sys

from runlab import cli, grammar, identities, triangles
from runlab.exactnum import PowerSeries


def corrupt_triangle(builder, n, k, delta=1):
    """Wrap a family builder so one entry, row n's k-th, comes out wrong."""

    def wrapped(n_max):
        tri = builder(n_max)
        if tri.start <= n <= tri.max_n and k < len(tri.row(n)):
            tri.row(n)[k] += delta
        return tri

    return wrapped


def linear_tower(g, terms, width, n):
    """``grammar._tower`` without the exponent factor e: a linear map that
    replaces each letter occurrence by its rule, but not a derivation."""
    mask = (1 << width) - 1
    for _ in range(n):
        items, terms = terms.items(), {}
        for s, rule in g._fields(width):
            for delta, rc in rule:
                for k, c in items:
                    if k >> s & mask:
                        terms[k + delta] = terms.get(k + delta, 0) + c * rc
        yield terms


def plus_z_cubed(real):
    """Wrap ``identities.sin_series`` so every sine series gains z^3."""

    def bumped(c, order):
        return real(c, order) + PowerSeries([0, 0, 0, 1] + [0] * (order - 3))

    return bumped


#: name -> (suite that must fail, owner, attribute, wrap of its original)
FAULTS = {
    # R(5,3) + 1, as perfbench/selfcheck.py check 4 injects it
    "runs-R53": ("all", triangles, "triangle_R", lambda real: corrupt_triangle(real, 5, 3)),
    # P_2 + x^2: its odd part fails closed/tangent at n = 2
    "tangent-P2": ("closed-forms", triangles, "poly_P",
                   lambda real: corrupt_triangle(real, 2, 2)),
    # z^3 in the sine: carlitz and altsubseq fail at "z^3: sqrt component"
    "sine-z3": ("gf", identities, "sin_series", plus_z_cubed),
    # D no derivation: every grammar check fails
    "linear-tower": ("grammar", grammar, "_tower", lambda real: linear_tower),
    # R(4,3) + 1 on the diagonal R(n+1, n): fails the three carlitz
    # checks, gf/carlitz[x0=0] included, at (3, "z^3")
    "diagonal-R43": ("gf", triangles, "triangle_R", lambda real: corrupt_triangle(real, 4, 3)),
}


def install(name, patch=setattr):
    """Inject fault ``name`` through ``patch(owner, attribute, value)`` and
    return the suite it must fail."""
    suite, owner, attr, wrap = FAULTS[name]
    patch(owner, attr, wrap(getattr(owner, attr)))
    return suite


def main(argv):
    if not argv:
        print("\n".join(FAULTS))
        return 0
    name, fmt = argv
    return cli.main(["verify", install(name), "--format", fmt])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
