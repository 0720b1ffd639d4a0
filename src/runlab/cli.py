"""Command-line front end.

Four subcommands: ``triangle`` prints coefficient rows, ``oracle`` prints
brute-force histograms, ``grammar`` prints iterated derivatives, and
``verify`` runs the identity suites.  Output formats are plain text, JSON
(one object per line, big integers as decimal strings) and CSV.

Exit codes: 0 success / all checks passed, 1 verification failure
(including a generated family that contradicts its own recurrence) or
stdout closed by its reader, 2 usage or parse error.  The environment
variable ``RUNLAB_MAX_N`` sets a hard ceiling on every n-like argument.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from fractions import Fraction

from . import grammar, identities, permcore, triangles

FORMATS = ("plain", "json", "csv")

TRIANGLE_BUILDERS = {
    "runs": triangles.triangle_R,
    "altsubseq": triangles.triangle_A,
    "peaks": triangles.triangle_W,
    "leftpeaks": triangles.triangle_Wtilde,
    "euler": triangles.triangle_euler,
}

ORACLE_STATS = tuple(s.value for s in permcore.Stat)


class _UsageError(Exception):
    """Raised by handlers for anything that should exit with code 2."""


def _ceiling() -> "int | None":
    raw = os.environ.get("RUNLAB_MAX_N")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise _UsageError(f"RUNLAB_MAX_N must be an integer, got {raw!r}") from None


def _guard_n(value: "int | None", what: str) -> None:
    if value is None:
        return
    cap = _ceiling()
    if cap is not None and value > cap:
        raise _UsageError(f"{what} {value} exceeds RUNLAB_MAX_N={cap}")


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


def _print_json(obj) -> None:
    print(json.dumps(obj, separators=(",", ":")))


# ----------------------------------------------------------------------
# triangle


def _cmd_triangle(args) -> int:
    _guard_n(args.n_max, "n_max")
    tri = TRIANGLE_BUILDERS[args.name](args.n_max)
    if args.format == "plain":
        for n in tri.indices():
            row = tri.row(n)
            first = next((k for k, v in enumerate(row) if v), None)
            print("0" if first is None else " ".join(str(v) for v in row[first:]))
    elif args.format == "json":
        for n in tri.indices():
            _print_json({"n": n, "coeffs": [str(v) for v in tri.row(n)]})
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["n", "k", "value"])
        for n in tri.indices():
            for k, v in enumerate(tri.row(n)):
                writer.writerow([n, k, v])
    return 0


# ----------------------------------------------------------------------
# oracle


def _cmd_oracle(args) -> int:
    _guard_n(args.n, "n")
    dist = permcore.distribution(args.stat, args.n)
    if args.format == "plain":
        print("{" + ", ".join(f"{k}:{v}" for k, v in dist.counts.items()) + "}")
    elif args.format == "json":
        _print_json(
            {
                "stat": dist.stat.value,
                "n": dist.n,
                "counts": {str(k): str(v) for k, v in dist.counts.items()},
            }
        )
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["k", "count"])
        for k, v in dist.counts.items():
            writer.writerow([k, v])
    return 0


# ----------------------------------------------------------------------
# grammar


def _cmd_grammar(args) -> int:
    _guard_n(args.n, "n")
    if args.builtin is not None:
        g = grammar.builtin(args.builtin)
    else:
        g = grammar.parse_grammar(args.spec)
    word = grammar.parse_word(args.word)
    result = grammar.d_power(g, word, args.n)
    if args.format == "plain":
        print(result)
    elif args.format == "json":
        _print_json(result.to_json_obj())
    else:
        letters = result.letters()
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["coeff", *letters])
        for mono, c in result.sorted_terms():
            writer.writerow([c, *(mono.degree_of(l) for l in letters)])
    return 0


# ----------------------------------------------------------------------
# verify


def _render_params(params: "dict[str, object]") -> str:
    return ", ".join(f"{k}={v}" for k, v in params.items())


def _cmd_verify(args) -> int:
    _guard_n(args.n_max, "n_max")
    _guard_n(args.order, "order")
    reports = identities.run_suite(
        args.suite,
        n_max=args.n_max,
        order=args.order,
        carlitz_x0s=None if args.x0 is None else (args.x0,),
        final_x0s=None if args.x0 is None else (args.x0,),
        stanley_t0s=None if args.t0 is None else (args.t0,),
    )
    failures = [r for r in reports if not r.passed]
    if args.format == "plain":
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            print(f"{status} {r.identity} ({_render_params(r.params)})")
            if r.first_failure is not None:
                f = r.first_failure
                print(f"  counterexample: n={f.n}, point={f.point}")
                print(f"    lhs = {f.lhs}")
                print(f"    rhs = {f.rhs}")
        print(f"{len(reports) - len(failures)}/{len(reports)} checks passed")
    elif args.format == "json":
        for r in reports:
            _print_json(r.to_json_obj())
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["identity", "passed", "n", "point", "lhs", "rhs"])
        for r in reports:
            f = r.first_failure
            writer.writerow(
                [r.identity, r.passed]
                + ([f.n, f.point, f.lhs, f.rhs] if f is not None else ["", "", "", ""])
            )
    return 1 if failures else 0


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
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage/help
        return int(exc.code or 0)
    try:
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
    except (_UsageError, grammar.GrammarError, ValueError) as exc:
        parser.print_usage(sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except triangles.ConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
