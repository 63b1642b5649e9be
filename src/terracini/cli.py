"""Command-line front end.

Subcommands: ``analyze`` runs requested checks on a constructed or loaded
chart, ``audit-theorem`` runs the 2-defectivity pipeline, ``catalog-list``
prints the fixture catalog.  Exit codes: 0 success, 1 input error, 2
consistency failure (an audit that must never fail did).  All randomness
is seeded through explicit flags, never environment state, so the same
invocation reproduces a byte-identical JSON report.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from fractions import Fraction
from functools import cache
from typing import Callable, NamedTuple

from . import catalog as cat
from .chart import (
    MAX_TABLE_ENTRIES,
    AmbientTooSmallError,
    Chart,
    ChartFormatError,
    TooLargeError,
    load_chart,
    project_generic,
)
from .curvilinear import generic_speciality
from .gamma15 import (
    AmbientMismatchError,
    PreconditionFailedError,
    defect_pipeline,
    equivalence_audit,
    gamma15_identically_zero,
    pi_constancy_check,
)
from .reports import SCHEMA_VERSION, render_json, render_markdown, to_jsonable
from .secants import (
    COORD_RADIUS,
    SingularPointError,
    osc2_regular,
    osc_variety_dim,
    sample_lattice_size,
    secant_defect,
)

DEFAULT_SEED = 1009
DEFAULT_TRIALS = 5
# Largest --trials accepted; the shipped tests and benchmark use at most 5,
# and every trial adds work and an entry to the report's trial lists.
MAX_TRIALS = 10_000
# Largest estimated work of a secant or sampled check, in derivative-table
# entries (see ``check_work``).  The shipped tests and benchmark estimate at
# most 22k for secant checks (the wide-spans templates 9k-22k) and 45,500 for
# the others (50 trials of v_12(P^2) osc:2; the rest at most 9,450).  On a
# 2-core x86-64 host random:2:3:8:1 --check secant:120 evaluates about 150k
# entries a second, and the sampled checks run at 0.2-2.7 million estimated
# entries a second (v_12(P^2) osc:2 0.56M).
MAX_WORK = 5_000_000
# Most digits of a command-line integer.  Python prints no int above 4,300
# digits (640 at its lowest setting), and a report prints seeds plus 1 to 3.
MAX_DIGITS = 100
PI_SAMPLES = (Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-1))


class InputError(Exception):
    """User input problem: bad flag value, bad file, bad variety spec."""


class TooManyDigitsError(InputError, argparse.ArgumentTypeError):
    """A command-line integer above MAX_DIGITS; argparse prints it as a flag's error."""


class Check(NamedTuple):
    """One row of ``CHECKS``: what a check reads, what it may cost, how it runs.

    ``order(arg)`` is the highest derivative order the check reads; ``cap`` is
    the work estimate checked before any check runs ("secant", "sampled", or
    None for fixed work); ``run(chart, arg, trials, seed)`` returns the result
    fields.  With a ``metavar`` the check takes an integer that ``allowed``
    accepts, else ``refusal`` (``{token}`` filled in) is the error.  ``--check``
    names only the rows of ``command`` analyze.
    """

    order: Callable[[int | None], int]
    cap: str | None
    run: Callable[[Chart, int | None, int, int], dict]
    metavar: str | None = None
    allowed: Callable[[int], bool] | None = None
    refusal: str = ""
    command: str = "analyze"


# The runners name the library functions at call time, so a rebinding of the
# module's names (by a test or a tracer) reaches them.
def _run_osc(chart: Chart, m: int, trials: int, seed: int) -> dict:
    dim = osc_variety_dim(chart, m, samples=trials, seed=seed)
    out = {"dim": dim, "bound": min((m + 1) * chart.n, chart.r)}
    if m == 2:
        verdict = osc2_regular(chart, trials=trials, seed=seed)
        out["criterion"] = to_jsonable(verdict)
        out["routes_agree"] = (dim == 3 * chart.n) == verdict.regular
    return out


def _run_pi_constancy(chart: Chart, _, trials: int, seed: int) -> dict:
    try:
        rep = pi_constancy_check(chart, PI_SAMPLES)
    except PreconditionFailedError as exc:
        return {"precondition_failed": True, "detail": str(exc)}
    return {"precondition_failed": False, **to_jsonable(rep)}


# One row per check, in --check help order.
CHECKS = {
    "secant": Check(lambda k: 1, "secant", lambda chart, k, trials, seed: to_jsonable(
                        secant_defect(chart, k, samples=trials, seed=seed)),
                    "K", lambda k: k >= 1, "secant check needs k >= 1, got {token!r}"),
    "osc": Check(lambda m: m + 1, "sampled", _run_osc,
                 "M", (1, 2).__contains__, "osc check supports m = 1 or 2"),
    "speciality": Check(lambda length: 3 if length == 2 else 5, "sampled",
                        lambda chart, length, trials, seed: to_jsonable(
                            generic_speciality(chart, length, trials=trials, seed=seed)),
                        "LEN", (2, 3).__contains__, "speciality check supports length 2 or 3"),
    "gamma15": Check(lambda _: 5, None, lambda chart, _, trials, seed: to_jsonable(
                         gamma15_identically_zero(chart, seed=seed))),
    "pi-constancy": Check(lambda _: 5, None, _run_pi_constancy),
    "audit": Check(lambda _: 5, "sampled", lambda chart, _, trials, seed: to_jsonable(
                       equivalence_audit(chart, trials=trials, seed=seed))),
    "defect-pipeline": Check(lambda _: 5, "sampled", lambda chart, _, trials, seed: to_jsonable(
                                 defect_pipeline(chart, trials=trials, seed=seed)),
                             command="audit-theorem"),
}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the report contract reserves 2 for
    # consistency failures, so usage errors exit 1, as every input error does.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"terracini: error: {message}\n")


@cache  # one parser per process, built on first use: parse_args keeps no state
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="terracini", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="run analysis checks on one variety")
    _add_variety_flags(analyze)
    analyze.add_argument("--check", action="append", required=True,
                         metavar="CHECK",
                         help=" | ".join(name if c.metavar is None else f"{name}:{c.metavar}"
                                         for name, c in CHECKS.items()
                                         if c.command == "analyze") + " (repeatable)")
    _add_common_flags(analyze)

    audit = sub.add_parser("audit-theorem",
                           help="run the 2-defectivity pipeline on one variety")
    _add_variety_flags(audit)
    _add_common_flags(audit)

    listing = sub.add_parser("catalog-list", help="list the fixture catalog")
    listing.add_argument("--format", choices=("json", "text"), default="text")
    return parser


def _add_variety_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--variety", required=True,
                   help="veronese:N:D | segre:A:B | random:N:D:R:SEED |"
                        " catalog:ID | file:PATH")


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trials", type=_int, default=DEFAULT_TRIALS,
                   help="trials/samples per randomized check (default %(default)s)")
    p.add_argument("--seed", type=_int, default=DEFAULT_SEED,
                   help="seed for all randomized draws (default %(default)s)")
    p.add_argument("--format", choices=("json", "markdown"), default="json")
    p.add_argument("--project", default=None, metavar="TARGET",
                   help="generically project the chart first: '3n+2' or an integer")


def _int(text: str) -> int:
    """``int(text)`` of ASCII digits after an optional minus; ``int`` also reads 1_0, +2, ' 2'."""
    if re.fullmatch(r"-?[0-9]+", text):
        digits = len(text.lstrip("-"))
        if digits > MAX_DIGITS:
            raise TooManyDigitsError(f"integer {text[:12]}... has {digits} digits,"
                                     f" above the cap of {MAX_DIGITS}")
        return int(text)
    raise ValueError(f"invalid literal for int() with base 10: {text!r}")


_int.__name__ = "int"  # argparse names a flag's type by it: "invalid int value: 'abc'"


def parse_variety(spec: str) -> Chart:
    kind, _, rest = spec.partition(":")
    try:
        make = cat.CONSTRUCTORS.get(kind)
        if make is not None:
            params = [_int(x) for x in rest.split(":")]
            if len(params) != make.__code__.co_argcount:
                raise ValueError(f"{kind} needs {make.__code__.co_argcount} integers")
            return make(*params)
        if kind == "catalog":
            return cat.get_entry(rest).build()
        if kind == "file":
            return load_chart(rest)
    except (ValueError, KeyError, OSError, ChartFormatError) as exc:
        raise InputError(f"bad variety spec {spec!r}: {exc}") from exc
    raise InputError(f"unknown variety kind {kind!r} in {spec!r}")


def apply_projection(chart: Chart, project: str | None, seed: int) -> Chart:
    if project is None:
        return chart
    if project.replace(" ", "") == "3n+2":
        target = 3 * chart.n + 2
    else:
        try:
            target = _int(project)
        except ValueError as exc:
            raise InputError(f"bad --project value {project!r}") from exc
    if target > chart.r:
        raise InputError(
            f"--project {target} exceeds the chart's ambient dimension r={chart.r}")
    try:
        return project_generic(chart, target, seed)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def parse_check(token: str) -> tuple[str, int | None]:
    name, _, arg = token.partition(":")
    check = CHECKS.get(name)
    if check is None or check.command != "analyze":
        raise InputError(f"unknown check {token!r}")
    if check.metavar is None:
        if arg:
            raise InputError(f"check {name} takes no argument, got {token!r}")
        return name, None
    try:
        value = _int(arg)
    except ValueError as exc:
        raise InputError(f"check {name} needs an integer argument, got {token!r}") from exc
    if not check.allowed(value):
        raise InputError(check.refusal.format(token=token))
    return name, value


def check_work(chart: Chart, what: str, name: str, arg: int | None, trials: int) -> None:
    """Refuse a check whose derivative tables or estimated work pass their caps.

    One table of the highest order h the check reads holds C(n+h, h)(r+1)
    entries.  Each trial of a sampled check reads a fixed number of tables of
    order at most h; its estimate is trials times one table.  A secant sample
    draws points of the lattice of L = 11^n points until k+1 are distinct,
    L (H_L - H_{L-k-1}) draws in expectation (H_m the m-th harmonic number),
    each evaluating one order-1 table; its estimate is trials times both.
    """
    check = CHECKS[name]
    order = check.order(arg)
    entries = math.comb(chart.n + order, order) * (chart.r + 1)
    if entries > MAX_TABLE_ENTRIES:
        raise InputError(f"{what} reads derivative tables of C(n+{order}, {order}) x (r+1)"
                         f" = {entries} entries, above the cap of {MAX_TABLE_ENTRIES}")
    if check.cap == "sampled":
        work = trials * entries
        detail = (f"is estimated at {work:,} table entries ({trials:,} trials x {entries:,}"
                  f" entries of an order-{order} table)")
    elif check.cap == "secant":
        lattice = sample_lattice_size(chart.n)
        if arg + 1 > lattice:
            raise InputError(f"{what} needs k+1 = {arg + 1} distinct sample points, but"
                             f" [-{COORD_RADIUS}, {COORD_RADIUS}]^{chart.n} holds only {lattice}")
        draws, about = arg + 1, "at least"  # one draw per point; past the cap, sum no further
        if trials * draws * entries <= MAX_WORK:
            draws, about = sum(lattice / (lattice - j) for j in range(arg + 1)), "about"
        work = trials * draws * entries
        detail = (f"draws {about} {trials * draws:,.0f} sample points of {entries} order-1"
                  f" table entries each, {work:,.0f} entries in all")
    if check.cap and work > MAX_WORK:
        raise InputError(f"{what} with --trials {trials} {detail}, above the cap of {MAX_WORK:,}")


def run_checks(args) -> int:
    """Run ``analyze`` or ``audit-theorem``: every cap first, then each check in turn."""
    if args.trials < 1:
        raise InputError(f"--trials must be >= 1, got {args.trials}")
    if args.trials > MAX_TRIALS:
        raise InputError(f"--trials {args.trials} is above the cap of {MAX_TRIALS}")
    analyze = args.command == "analyze"
    # (what the cap messages name, check name, argument), in run order
    jobs = ([(f"check {token}", *parse_check(token)) for token in args.check] if analyze else
            [(args.command, name, None) for name, c in CHECKS.items() if c.command == args.command])
    chart = apply_projection(parse_variety(args.variety), args.project, args.seed)
    for what, name, arg in jobs:
        check_work(chart, what, name, arg, args.trials)
    results = []
    for _, name, arg in jobs:
        try:
            fields = CHECKS[name].run(chart, arg, args.trials, args.seed)
        except (AmbientMismatchError, AmbientTooSmallError, SingularPointError,
                TooLargeError) as exc:
            raise InputError(f"check {name}: {exc}" if analyze else str(exc)) from exc
        results.append({"check": name if arg is None else f"{name}:{arg}", **fields})
    doc = {
        "schema_version": SCHEMA_VERSION,
        "tool": "terracini",
        "config": {
            "command": args.command,
            "variety": args.variety,
            **({"checks": list(args.check)} if analyze else {}),
            "trials": args.trials,
            "seed": args.seed,
            "project": args.project,
            "format": args.format,
        },
        "chart": {"label": chart.label, "n": chart.n, "r": chart.r},
        "results": results,
    }
    sys.stdout.write(render_json(doc) if args.format == "json" else render_markdown(doc))
    failed = any(r.get("consistent") is False or r.get("routes_agree") is False
                 or r.get("theorem_violated") is True for r in results)
    return 2 if failed else 0


def cmd_catalog_list(args) -> int:
    entries = cat.load_catalog()
    if args.format == "json":
        doc = {"schema_version": SCHEMA_VERSION,
               "entries": [to_jsonable(e) for e in entries]}
        sys.stdout.write(render_json(doc))
        return 0
    for e in entries:
        defects = ", ".join(f"delta_{d.k}={d.delta}" for d in e.known_defects) or "none recorded"
        flags = []
        if e.equivalence_eligible:
            flags.append("equivalence-eligible")
        if e.projection_target is not None:
            flags.append(f"project->{e.projection_target}")
        extra = f" [{', '.join(flags)}]" if flags else ""
        sys.stdout.write(f"{e.id}: {e.label} (n={e.n}, r={e.r}); {defects}{extra}\n")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "catalog-list":
            return cmd_catalog_list(args)
        return run_checks(args)
    except (InputError, ChartFormatError) as exc:
        print(f"terracini: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
