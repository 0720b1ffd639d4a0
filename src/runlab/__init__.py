"""Exact-arithmetic toolkit for alternating-run permutation statistics.

Submodules:

* :mod:`runlab.exactnum`   -- rationals, Q(sqrt(d)), polynomials, series
* :mod:`runlab.permcore`   -- brute-force statistics over S_n (the oracle)
* :mod:`runlab.triangles`  -- recurrence-driven integer families, one per statistic
* :mod:`runlab.grammar`    -- substitution-rule derivative calculus and its DSL
* :mod:`runlab.identities` -- executable identity checks with exact reports
* :mod:`runlab.cli`        -- the ``runlab`` command
"""

from .exactnum import Fraction, PowerSeries, QuadExt, RatPoly
from .grammar import Grammar, MPoly, Monomial, parse_grammar
from .permcore import Stat, distribution
from .triangles import Family

__version__ = "0.1.0"

__all__ = [
    "Family",
    "Fraction",
    "Grammar",
    "MPoly",
    "Monomial",
    "PowerSeries",
    "QuadExt",
    "RatPoly",
    "Stat",
    "__version__",
    "distribution",
    "parse_grammar",
]
