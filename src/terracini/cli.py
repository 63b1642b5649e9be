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
import sys
from fractions import Fraction

from . import catalog as cat
from .chart import (
    MAX_TABLE_ENTRIES,
    AmbientTooSmallError,
    Chart,
    ChartFormatError,
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
PI_SAMPLES = (Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-1))

KNOWN_CHECKS = ("secant", "osc", "speciality", "gamma15", "pi-constancy", "audit")


class InputError(Exception):
    """User input problem: bad flag value, bad file, bad variety spec."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the report contract reserves 2 for
    # consistency failures, so remap usage errors to exit 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="terracini", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="run analysis checks on one variety")
    _add_variety_flags(analyze)
    analyze.add_argument("--check", action="append", required=True,
                         metavar="CHECK",
                         help="secant:K | osc:M | speciality:LEN | gamma15 |"
                              " pi-constancy | audit (repeatable)")
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
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS,
                   help="trials/samples per randomized check (default %(default)s)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="seed for all randomized draws (default %(default)s)")
    p.add_argument("--format", choices=("json", "markdown"), default="json")
    p.add_argument("--project", default=None, metavar="TARGET",
                   help="generically project the chart first: '3n+2' or an integer")


def parse_variety(spec: str) -> Chart:
    kind, _, rest = spec.partition(":")
    try:
        if kind == "veronese":
            n, d = (int(x) for x in rest.split(":"))
            return cat.make_veronese(n, d)
        if kind == "segre":
            a, b = (int(x) for x in rest.split(":"))
            return cat.make_segre(a, b)
        if kind == "random":
            n, d, r, seed = (int(x) for x in rest.split(":"))
            return cat.make_random_variety(n, d, r, seed)
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
            target = int(project)
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
    if name not in KNOWN_CHECKS:
        raise InputError(f"unknown check {token!r}")
    if name in ("secant", "osc", "speciality"):
        try:
            value = int(arg)
        except ValueError as exc:
            raise InputError(f"check {name} needs an integer argument, got {token!r}") from exc
        if name == "secant" and value < 1:
            raise InputError(f"secant check needs k >= 1, got {token!r}")
        if name == "osc" and value not in (1, 2):
            raise InputError("osc check supports m = 1 or 2")
        if name == "speciality" and value not in (2, 3):
            raise InputError("speciality check supports length 2 or 3")
        return name, value
    if arg:
        raise InputError(f"check {name} takes no argument, got {token!r}")
    return name, None


def derivative_order(name: str, arg: int | None) -> int:
    """Highest derivative order a check reads; gamma15, pi-constancy, audit read 5."""
    orders = {"secant": 1, "osc": (arg or 0) + 1, "speciality": 3 if arg == 2 else 5}
    return orders.get(name, 5)


def check_table_size(chart: Chart, what: str, order: int) -> None:
    entries = math.comb(chart.n + order, order) * (chart.r + 1)
    if entries > MAX_TABLE_ENTRIES:
        raise InputError(f"{what} reads derivative tables of C(n+{order}, {order}) x (r+1)"
                         f" = {entries} entries, above the cap of {MAX_TABLE_ENTRIES}")


def run_check(chart: Chart, name: str, arg: int | None, trials: int, seed: int) -> dict:
    if name == "secant":
        rec = secant_defect(chart, arg, samples=trials, seed=seed)
        return {"check": f"secant:{arg}", **to_jsonable(rec)}
    if name == "osc":
        dim = osc_variety_dim(chart, arg, samples=trials, seed=seed)
        out = {"check": f"osc:{arg}", "dim": dim,
               "bound": min((arg + 1) * chart.n, chart.r)}
        if arg == 2:
            verdict = osc2_regular(chart, trials=trials, seed=seed)
            out["criterion"] = to_jsonable(verdict)
            out["routes_agree"] = (dim == 3 * chart.n) == verdict.regular
        return out
    if name == "speciality":
        verdict = generic_speciality(chart, arg, trials=trials, seed=seed)
        return {"check": f"speciality:{arg}", **to_jsonable(verdict)}
    if name == "gamma15":
        verdict = gamma15_identically_zero(chart, seed=seed)
        return {"check": "gamma15", **to_jsonable(verdict)}
    if name == "pi-constancy":
        try:
            rep = pi_constancy_check(chart, PI_SAMPLES)
        except PreconditionFailedError as exc:
            return {"check": "pi-constancy", "precondition_failed": True,
                    "detail": str(exc)}
        return {"check": "pi-constancy", "precondition_failed": False,
                **to_jsonable(rep)}
    if name == "audit":
        rep = equivalence_audit(chart, trials=trials, seed=seed)
        return {"check": "audit", **to_jsonable(rep)}
    raise InputError(f"unknown check {name}")


def _emit(doc: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(render_json(doc))
    else:
        sys.stdout.write(render_markdown(doc))


def check_trials(trials: int) -> None:
    if trials < 1:
        raise InputError(f"--trials must be >= 1, got {trials}")
    if trials > MAX_TRIALS:
        raise InputError(f"--trials {trials} is above the cap of {MAX_TRIALS}")


def cmd_analyze(args) -> int:
    check_trials(args.trials)
    checks = [parse_check(token) for token in args.check]
    chart = parse_variety(args.variety)
    chart = apply_projection(chart, args.project, args.seed)
    for token, (name, arg) in zip(args.check, checks):
        check_table_size(chart, f"check {token}", derivative_order(name, arg))
        if name == "secant" and arg + 1 > sample_lattice_size(chart.n):
            raise InputError(f"check {token} needs k+1 = {arg + 1} distinct sample points, but"
                             f" [-{COORD_RADIUS}, {COORD_RADIUS}]^{chart.n} holds only"
                             f" {sample_lattice_size(chart.n)}")
    results = []
    consistent = True
    for name, arg in checks:
        try:
            result = run_check(chart, name, arg, args.trials, args.seed)
        except (AmbientMismatchError, AmbientTooSmallError, SingularPointError) as exc:
            raise InputError(f"check {name}: {exc}") from exc
        results.append(result)
        if result.get("consistent") is False or result.get("routes_agree") is False:
            consistent = False
    doc = {
        "schema_version": SCHEMA_VERSION,
        "tool": "terracini",
        "config": {
            "command": "analyze",
            "variety": args.variety,
            "checks": list(args.check),
            "trials": args.trials,
            "seed": args.seed,
            "project": args.project,
            "format": args.format,
        },
        "chart": {"label": chart.label, "n": chart.n, "r": chart.r},
        "results": results,
    }
    _emit(doc, args.format)
    return 0 if consistent else 2


def cmd_audit_theorem(args) -> int:
    check_trials(args.trials)
    chart = parse_variety(args.variety)
    chart = apply_projection(chart, args.project, args.seed)
    check_table_size(chart, "audit-theorem", 5)
    try:
        rep = defect_pipeline(chart, trials=args.trials, samples=args.trials,
                              seed=args.seed)
    except (AmbientMismatchError, AmbientTooSmallError, SingularPointError) as exc:
        raise InputError(str(exc)) from exc
    doc = {
        "schema_version": SCHEMA_VERSION,
        "tool": "terracini",
        "config": {
            "command": "audit-theorem",
            "variety": args.variety,
            "trials": args.trials,
            "seed": args.seed,
            "project": args.project,
            "format": args.format,
        },
        "chart": {"label": chart.label, "n": chart.n, "r": chart.r},
        "results": [{"check": "defect-pipeline", **to_jsonable(rep)}],
    }
    _emit(doc, args.format)
    return 2 if rep.theorem_violated else 0


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
        if args.command == "analyze":
            return cmd_analyze(args)
        if args.command == "audit-theorem":
            return cmd_audit_theorem(args)
        if args.command == "catalog-list":
            return cmd_catalog_list(args)
    except InputError as exc:
        print(f"terracini: error: {exc}", file=sys.stderr)
        return 1
    except ChartFormatError as exc:
        print(f"terracini: error: {exc}", file=sys.stderr)
        return 1
    return 1


if __name__ == "__main__":
    sys.exit(main())
