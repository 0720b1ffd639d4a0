"""Command-line front end.

Four subcommands: ``triangle`` prints coefficient rows, ``oracle`` prints
brute-force histograms, ``grammar`` prints iterated derivatives, and
``verify`` runs the identity suites.  Each writes its output through
:func:`_emit` in one of three formats: plain text, JSON (one object per
line, big integers as decimal strings) or CSV (a header row, then one row
per coefficient, count, term or report).

Exit codes: 0 success / all checks passed, 1 verification failure
(including a generated family that contradicts its own recurrence) or
stdout closed by its reader, 2 usage or parse error.  The environment
variable ``RUNLAB_MAX_N`` sets a hard ceiling on every n-like argument;
it is read before any command runs, so a value that is not an integer
exits 2 whatever the command.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from itertools import chain

from . import grammar, identities, permcore, triangles

FORMATS = ("plain", "json", "csv")

TRIANGLE_BUILDERS = {
    "runs": triangles.triangle_R,
    "altsubseq": triangles.triangle_A,
    "peaks": triangles.poly_W,
    "leftpeaks": triangles.poly_Wtilde,
    "euler": triangles.triangle_euler,
}

ORACLE_STATS = tuple(s.value for s in permcore.Stat)


def _check_ceiling(args) -> None:
    """Refuse a malformed ``RUNLAB_MAX_N``, then each n-like argument
    given that exceeds it."""
    raw = os.environ.get("RUNLAB_MAX_N")
    if raw is None:
        return
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"RUNLAB_MAX_N must be an integer, got {raw!r}") from None
    for what in ("n_max", "n", "order"):
        value = getattr(args, what, None)
        if value is not None and value > cap:
            raise ValueError(f"{what} {value} exceeds RUNLAB_MAX_N={cap}")


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


def _attach_negative_values(argv: "list[str]") -> "list[str]":
    """``--x0 -1/2`` as ``--x0=-1/2``, and the same for ``--t0``.

    argparse takes a token that starts with ``-`` for an option unless it
    reads as a negative decimal, so a negative fraction after a space
    would never reach :func:`_fraction`.
    """
    out: "list[str]" = []
    for token in argv:
        if out and out[-1] in ("--x0", "--t0") and token.startswith("-"):
            try:
                Fraction(token)
            except (ValueError, ZeroDivisionError):
                pass
            else:
                out[-1] += "=" + token
                continue
        out.append(token)
    return out


def _emit(fmt: str, lines, objs, rows) -> None:
    """Print one command's output in ``fmt``.

    ``lines`` builds the plain-text lines, ``objs`` the JSON objects
    (one per line) and ``rows`` the CSV rows, header first.  Each is a
    callable returning an iterable, so only the requested format is built,
    and ``json`` or ``csv`` is imported only when its format is asked for:
    the default plain format starts faster without either.
    """
    if fmt == "plain":
        for line in lines():
            print(line)
    elif fmt == "json":
        import json

        for obj in objs():
            print(json.dumps(obj, separators=(",", ":")))
    else:
        import csv

        csv.writer(sys.stdout, lineterminator="\n").writerows(rows())


# ----------------------------------------------------------------------
# triangle


def _cmd_triangle(args) -> int:
    tri = TRIANGLE_BUILDERS[args.name](args.n_max)

    def lines():
        for n in tri.indices():
            row = tri.row(n)
            first = next((k for k, v in enumerate(row) if v), None)
            yield "0" if first is None else " ".join(str(v) for v in row[first:])

    _emit(args.format, lines,
          lambda: ({"n": n, "coeffs": [str(v) for v in tri.row(n)]} for n in tri.indices()),
          lambda: chain([["n", "k", "value"]],
                        ([n, k, v] for n in tri.indices() for k, v in enumerate(tri.row(n)))))
    return 0


# ----------------------------------------------------------------------
# oracle


def _cmd_oracle(args) -> int:
    dist = permcore.distribution(args.stat, args.n)
    _emit(args.format,
          lambda: [identities._Hist(dist.counts)],
          lambda: [{"stat": dist.stat.value, "n": dist.n,
                    "counts": {str(k): str(v) for k, v in dist.counts.items()}}],
          lambda: [["k", "count"], *dist.counts.items()])
    return 0


# ----------------------------------------------------------------------
# grammar


def _cmd_grammar(args) -> int:
    if args.builtin is not None:
        g = grammar.builtin(args.builtin)
    else:
        g = grammar.parse_grammar(args.spec)
    word = grammar.parse_word(args.word)
    result = grammar.d_power(g, word, args.n)

    def rows():
        letters = result.letters()
        yield ["coeff", *letters]
        for mono, c in result.sorted_terms():
            yield [c, *(mono.degree_of(l) for l in letters)]

    _emit(args.format, lambda: [result], lambda: [result.to_json_obj()], rows)
    return 0


# ----------------------------------------------------------------------
# verify


def _cmd_verify(args) -> int:
    reports = identities.run_suite(
        args.suite,
        n_max=args.n_max,
        order=args.order,
        carlitz_x0s=None if args.x0 is None else (args.x0,),
        final_x0s=None if args.x0 is None else (args.x0,),
        stanley_t0s=None if args.t0 is None else (args.t0,),
    )
    passed = sum(r.passed for r in reports)

    def lines():
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            yield f"{status} {r.identity} ({identities._params_text(r.params)})"
            f = r.first_failure
            if f is not None:
                yield f"  counterexample: n={f.n}, point={f.point}"
                yield f"    lhs = {f.lhs}"
                yield f"    rhs = {f.rhs}"
        yield f"{passed}/{len(reports)} checks passed"

    def rows():
        yield ["identity", "passed", "n", "point", "lhs", "rhs"]
        for r in reports:
            f = r.first_failure
            yield [r.identity, r.passed] + (
                [f.n, f.point, f.lhs, f.rhs] if f is not None else ["", "", "", ""])

    _emit(args.format, lines, lambda: (r.to_json_obj() for r in reports), rows)
    return 0 if passed == len(reports) else 1


# ----------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="runlab",
        description="Exact triangles, grammar derivatives and identity "
        "verification for alternating-run statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=FORMATS, default="plain")

    p = sub.add_parser("triangle", help="print rows of one of the five triangles")
    p.add_argument("name", choices=sorted(TRIANGLE_BUILDERS))
    p.add_argument("n_max", type=int)
    add_format(p)
    p.set_defaults(handler=_cmd_triangle)

    p = sub.add_parser("oracle", help="brute-force histogram of a statistic over S_n")
    p.add_argument("stat", choices=ORACLE_STATS)
    p.add_argument("n", type=int)
    add_format(p)
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("grammar", help="expand iterated grammar derivatives")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--builtin", choices=sorted(grammar.BUILTIN_GRAMMARS))
    src.add_argument("--spec", help='rule set such as "x -> x*y; y -> x*y"')
    p.add_argument("--word", required=True, help="seed monomial, e.g. x^2")
    p.add_argument("--n", type=int, default=1, help="derivative order (default 1)")
    add_format(p)
    p.set_defaults(handler=_cmd_grammar)

    p = sub.add_parser("verify", help="run identity check suites")
    p.add_argument("suite", nargs="?", default="all", choices=identities.SUITES)
    p.add_argument("--n-max", dest="n_max", type=int, default=None,
                   help="override every check's n range")
    p.add_argument("--order", type=int, default=None,
                   help="series truncation order for the gf checks")
    p.add_argument("--x0", type=_fraction, default=None,
                   help="single base point for the EGF checks in z")
    p.add_argument("--t0", type=_fraction, default=None,
                   help="single base point for the altsubseq EGF in x")
    add_format(p)
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(
            _attach_negative_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:  # argparse already printed usage/help
        return int(exc.code or 0)
    try:
        _check_ceiling(args)
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of stdout went away (``| head``).  Point stdout at
        # devnull so the interpreter's final flush stays quiet too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except ValueError as exc:  # grammar.GrammarError is one
        parser.print_usage(sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except triangles.ConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
